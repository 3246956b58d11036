package dkindex

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"dkindex/internal/cow/cowtest"
	"dkindex/internal/experiments"
	"dkindex/internal/graph"
)

// tunedXMark builds the load-tuned D(k)-index of XMark at the given scale.
func tunedXMark(t *testing.T, scale float64) (*experiments.Dataset, *Index) {
	t.Helper()
	ds, err := experiments.XMarkDataset(scale, 1)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make(map[string]int)
	for l, k := range ds.W.Requirements() {
		reqs[ds.G.Labels().Name(l)] = k
	}
	return ds, FromGraph(ds.G, reqs)
}

// commitAllocBytes builds the load-tuned D(k)-index of XMark at the given
// scale and returns the bytes one commit allocates of each of the benchmark's
// two batches, averaged over a run of batches after one warm-up batch: the
// edge batch (add four reference edges, remove the four the previous batch
// added) and the batch of eight documents.
func commitAllocBytes(t *testing.T, scale float64) (edgeBatch, docBatch float64) {
	t.Helper()
	const batches = 16
	ds, idx := tunedXMark(t, scale)
	edges, err := ds.RandomEdges(4*(batches+2), 1)
	if err != nil {
		t.Fatal(err)
	}
	edgeCommit := func(b int) []Mutation {
		ms := make([]Mutation, 0, 8)
		for _, e := range edges[4*(b+1) : 4*(b+2)] {
			ms = append(ms, Mutation{Op: MutAddEdge, From: e[0], To: e[1]})
		}
		for _, e := range edges[4*b : 4*(b+1)] {
			ms = append(ms, Mutation{Op: MutRemoveEdge, From: e[0], To: e[1]})
		}
		return ms
	}
	docCommit := func(b int) []Mutation {
		ms := make([]Mutation, 8)
		for i := range ms {
			ms[i] = Mutation{Op: MutAddDocument, Doc: auctionFragment(t, 8*b+i)}
		}
		return ms
	}
	perCommit := func(batch func(int) []Mutation) float64 {
		var total uint64
		for b := 0; b <= batches; b++ {
			ms := batch(b)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			acks, err := idx.ApplyBatch(ms)
			runtime.ReadMemStats(&m1)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range acks {
				if a.Err != nil {
					t.Fatal(a.Err)
				}
			}
			if b > 0 { // batch 0 warms up
				total += m1.TotalAlloc - m0.TotalAlloc
			}
		}
		return float64(total) / batches
	}
	return perCommit(edgeCommit), perCommit(docCommit)
}

// TestCommitAllocationFlatInCorpusSize pins ROADMAP item 3's "flat in corpus
// size": a write batch allocates what it touches, not a copy of the corpus.
// With deep-copy clones the edge batch allocated 8.7 MB at scale 1.0, four
// times its cost at scale 0.25; with a whole-index rebuild per add_document
// the document batch allocated 15.5 MB against 9.5 MB. The limits are the
// measured 25.8 kB and 137.5 kB plus 25 %; while Algorithm 3 ran once per
// document of the batch the document batch read 213 kB, and with one level
// of 128-element pages, map adjacency and whole-list posting copies the two
// read 133 kB and 980 kB, while adjacency pages held one slice header per
// row the edge batch read
// 53.9 kB, and while an index edge kept a count on both of its ends, Algorithm
// 4 built maps per probe and every member took a second record to the log the
// edge batch read 47.7 kB; while every document was parsed into a paged graph,
// copied into a second one and indexed by an IndexGraph of its own the
// document batch read 494 kB. The race detector makes sync.Pool drop Algorithm
// 3's pooled scratch at random, which the larger index pays more for: under it
// the document batch read 1.34-1.59 MB over ten runs with those three graphs
// (1.19 MB without), is held to ~1.5 MB plus 25 % and its growth is not
// checked.
func TestCommitAllocationFlatInCorpusSize(t *testing.T) {
	smallEdge, smallDoc := commitAllocBytes(t, 0.25)
	fullEdge, fullDoc := commitAllocBytes(t, 1.0)
	docLimit := 172_000.0
	if cowtest.RaceEnabled {
		docLimit = 1_875_000
	}
	for _, c := range []struct {
		batch       string
		small, full float64
		limit       float64
	}{
		{"8-edge", smallEdge, fullEdge, 32_310},
		{"8-document", smallDoc, fullDoc, docLimit},
	} {
		t.Logf("bytes per %s commit: %.0f at scale 0.25, %.0f at scale 1.0 (ratio %.2f)", c.batch, c.small, c.full, c.full/c.small)
		if c.full >= c.limit {
			t.Errorf("an %s commit allocates %.0f bytes at scale 1.0, want < %.0f", c.batch, c.full, c.limit)
		}
		if pooled := c.batch == "8-document"; c.full/c.small >= 1.5 && !(pooled && cowtest.RaceEnabled) {
			t.Errorf("%s commit allocation grew %.2fx from scale 0.25 to 1.0, want < 1.5x", c.batch, c.full/c.small)
		}
	}
}

// TestCloneCostIsFlat pins the clone every commit starts with: DK.Clone
// shares every column, directories included, so it allocates the containers'
// headers and tokens whatever the corpus size. With one level of 128-element
// pages it copied a 673-pointer page table per 86k-node column, 44 kB at
// XMark scale 1.0 and 1.82x its cost at scale 0.25.
func TestCloneCostIsFlat(t *testing.T) {
	cloneBytes := func(scale float64) float64 {
		_, idx := tunedXMark(t, scale)
		dk := idx.DK()
		const runs = 64
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			dk.Clone()
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	}
	small, full := cloneBytes(0.25), cloneBytes(1.0)
	t.Logf("bytes per DK.Clone: %.0f at scale 0.25, %.0f at scale 1.0 (ratio %.2f)", small, full, full/small)
	if full >= 4<<10 {
		t.Errorf("DK.Clone allocates %.0f bytes at scale 1.0, want < 4 kB", full)
	}
	if full/small >= 1.2 {
		t.Errorf("DK.Clone allocation grew %.2fx from scale 0.25 to 1.0, want < 1.2x", full/small)
	}
}

// TestColdReadAllocatesItsAnswer pins the read path's allocation contract on
// XMark at scale 1.0: validating one extent member with the reversed
// automaton allocates nothing once the pooled scratch is warm, and a whole
// cold Run of a validating first//last RPE (parse, compile, index fixpoint,
// 277 validated extents, result assembly) that lists its whole answer
// allocates less than twice the bytes of that answer. With the interpreted
// kernel the member check allocated a state set per (node, state, parent)
// step and the same Run some eighty times its answer; while the evaluator
// merged the answer into a slice of its own and Run copied the listed nodes
// out of it, the Run allocated 2.44 times its answer.
func TestColdReadAllocatesItsAnswer(t *testing.T) {
	if cowtest.RaceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled scratch at random")
	}
	ds, idx := tunedXMark(t, 1.0)
	idx.SetResultCache(0)
	const text = "site//name"

	c := compileRPE(t, text, ds.G.Labels())
	members := ds.G.NodesWithLabel(ds.G.Labels().Lookup("name"))
	charged := 0
	charge := func(graph.NodeID) { charged++ }
	next := 0
	check := func() {
		c.MatchesNode(ds.G, members.At(next%members.Len()), charge)
		next++
	}
	check()
	if allocs := testing.AllocsPerRun(members.Len(), check); allocs != 0 {
		t.Errorf("MatchesNode allocates %.2f times per member, want 0", allocs)
	}
	if charged == 0 {
		t.Fatal("validation charged nothing")
	}

	req := Request{Kind: KindRPE, Text: text}
	res, err := idx.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Validations == 0 || res.CacheHit {
		t.Fatalf("%s: want a validating cache miss, got %+v hit=%v", text, res.Stats, res.CacheHit)
	}
	const runs = 8
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		if _, err := idx.Run(req); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	perRun := float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	answer := float64(len(res.Nodes)) * 4 // a NodeID is four bytes
	t.Logf("%s: %d nodes, %d extents validated, %.0f bytes per cold Run (%.2fx the answer)",
		text, len(res.Nodes), res.Stats.Validations, perRun, perRun/answer)
	if perRun >= 2*answer {
		t.Errorf("a cold Run of %s allocates %.0f bytes for a %.0f-byte answer, want < 2x", text, perRun, answer)
	}
}

// coldRunBytes returns the fewest bytes one cold Run of req allocated over a
// run of them: the least is the Run whose pooled scratch was all there, which
// a collection in the middle of another Run can empty.
func coldRunBytes(t *testing.T, idx *Index, req Request) uint64 {
	t.Helper()
	best := uint64(math.MaxUint64)
	var m0, m1 runtime.MemStats
	for range 16 {
		runtime.ReadMemStats(&m0)
		if _, err := idx.Run(req); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		best = min(best, m1.TotalAlloc-m0.TotalAlloc)
	}
	return best
}

// TestColdReadAllocatesWhatItLists pins the other half of the contract: the
// evaluators hand Run the union they matched, unmerged, and Run merges only
// the prefix the request lists. For a validating RPE, a validating twig and a
// path whose answer is one sound extent, a cold Run listing 100 nodes
// allocates within a small constant of one listing 10 — the 360 bytes of the
// 90 more nodes plus allocator rounding — and well below the answer's bytes,
// and a count-only Run allocates no node slice. While the evaluator merged
// every answer into a slice of its own, the site//name Run allocated 2.44
// times its 19 300-byte answer at any limit.
func TestColdReadAllocatesWhatItLists(t *testing.T) {
	if cowtest.RaceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled scratch at random")
	}
	_, idx := tunedXMark(t, 1.0)
	idx.SetResultCache(0)
	for _, q := range []struct {
		kind     Kind
		text     string
		validate bool
	}{
		{KindRPE, "site//name", true},
		{KindTwig, "person[emailaddress].name", true},
		{KindPath, "mail.text", false},
	} {
		req := Request{Kind: q.kind, Text: q.text}
		res, err := idx.Run(req)
		if err != nil {
			t.Fatal(err)
		}
		if (res.Stats.Validations > 0) != q.validate || res.Total < 1000 {
			t.Fatalf("%s: want a large answer, validating=%v, got %d nodes, %+v", q.text, q.validate, res.Total, res.Stats)
		}
		if !q.validate {
			if e, err := idx.Explain(q.text); err != nil || len(e.Matched) != 1 {
				t.Fatalf("%s: want an answer of one sound extent, got %v %v", q.text, e, err)
			}
		}
		answer := 4 * uint64(res.Total) // a NodeID is four bytes
		req.Limit = 10
		at10 := coldRunBytes(t, idx, req)
		req.Limit = 100
		at100 := coldRunBytes(t, idx, req)
		req.Limit = -1
		none := coldRunBytes(t, idx, req)
		if r, _ := idx.Run(req); r.Nodes != nil || r.Total != res.Total {
			t.Fatalf("%s: a count-only Run listed %d nodes of %d", q.text, len(r.Nodes), r.Total)
		}
		t.Logf("%s: %d nodes, %d-byte answer; a cold Run allocates %d bytes at limit 10, %d at 100, %d count-only",
			q.text, res.Total, answer, at10, at100, none)
		if at100 > at10+360+256 {
			t.Errorf("%s: a cold Run allocates %d bytes at limit 100 and %d at 10, want at most 616 more: it merges more than it lists", q.text, at100, at10)
		}
		if at100 >= answer/2 {
			t.Errorf("%s: a cold Run at limit 100 allocates %d bytes for a %d-byte answer, want < half of it", q.text, at100, answer)
		}
		if none+40 > at10 {
			t.Errorf("%s: a count-only Run allocates %d bytes, %d at limit 10: want the 40-byte node slice less", q.text, none, at10)
		}
	}
}

// TestCachedRPEHitCompilesNothing: a request is looked up in the result
// cache before it is parsed, so an RPE answered from the cache is neither
// parsed nor compiled. It allocates what the path request spelling the same
// one-label query does: the cache key, and nothing else.
func TestCachedRPEHitCompilesNothing(t *testing.T) {
	_, idx := tunedXMark(t, 0.25)
	hitAllocs := func(kind Kind) float64 {
		req := Request{Kind: kind, Text: "name", Limit: -1}
		if _, err := idx.Run(req); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(100, func() {
			if res, _ := idx.Run(req); !res.CacheHit {
				t.Fatal("warmed request missed the cache")
			}
		})
	}
	path, expr := hitAllocs(KindPath), hitAllocs(KindRPE)
	t.Logf("allocations per cache hit: path %.0f, rpe %.0f", path, expr)
	if expr > path || expr > 1 {
		t.Errorf("a cached RPE hit allocates %.0f times, a path hit %.0f, want the key alone: the hit parsed or compiled", expr, path)
	}
}

// TestTwigScratchRefillCostsWhatTheQueryTouches: a collection empties the
// pools the evaluators draw their scratch from, and the first query after it
// builds the scratch again. For a validating twig that used to mean two dense
// steps x NumNodes memo tables (0.34 MB per step at scale 1.0, the
// one-round-in-eight spike in the benchmark's cold reads); with memos that
// number only the (step, node) pairs a query touches, the whole Run after two
// collections allocates less than 64 kB beyond its answer.
func TestTwigScratchRefillCostsWhatTheQueryTouches(t *testing.T) {
	_, idx := tunedXMark(t, 0.25)
	idx.SetResultCache(0)
	req := Request{Kind: KindTwig, Text: "item[location].name"}
	res, err := idx.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Validations == 0 || len(res.Nodes) == 0 {
		t.Fatalf("%s: want a validating twig with an answer, got %+v", req.Text, res.Stats)
	}
	runtime.GC()
	runtime.GC() // the second one drops what the first moved to the pools' victim caches
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := idx.Run(req); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	beyond := int(m1.TotalAlloc-m0.TotalAlloc) - 4*len(res.Nodes) // a NodeID is four bytes
	t.Logf("%s: %d nodes, %d extents validated, %d bytes beyond the answer on the first Run after two collections",
		req.Text, len(res.Nodes), res.Stats.Validations, beyond)
	if beyond >= 64<<10 {
		t.Errorf("the first twig Run after a collection allocates %d bytes beyond its answer, want < 64 kB", beyond)
	}
}

// TestKeptAnswerCostsAByteAHit pins what a miss stores in the result cache:
// its answer made only of sets, the validated hits compressed into one more
// set at about a byte each. A validating RPE misses once with the cache on
// and once with it off, garbage collection off; what the cache-on miss
// allocates beyond the other must stay within 1.5 bytes per answer node (a
// bound on its validated hits) plus a fixed allowance for the entry, its
// list of sets and the key. While Keep copied the hits out as a plain
// slice, at four bytes each, the difference was 5 232 bytes for the
// query's 1 205 nodes; it is now 1 792.
func TestKeptAnswerCostsAByteAHit(t *testing.T) {
	if cowtest.RaceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled scratch at random")
	}
	_, idx := tunedXMark(t, 0.25)
	req := Request{Kind: KindRPE, Text: "site//name", Limit: -1}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	missBytes := func(capacity int) (uint64, Result) {
		best := uint64(math.MaxUint64)
		var res Result
		var m0, m1 runtime.MemStats
		for range 8 {
			idx.SetResultCache(capacity) // a cold cache, made outside the window
			runtime.ReadMemStats(&m0)
			r, err := idx.Run(req)
			runtime.ReadMemStats(&m1)
			if err != nil {
				t.Fatal(err)
			}
			if r.CacheHit || r.Stats.Validations == 0 {
				t.Fatalf("%s: want a validating miss, got %+v hit=%v", req.Text, r.Stats, r.CacheHit)
			}
			res, best = r, min(best, m1.TotalAlloc-m0.TotalAlloc)
		}
		return best, res
	}
	off, res := missBytes(0)
	on, _ := missBytes(DefaultResultCacheSize)
	if idx.Stats().CachedResults != 1 {
		t.Fatalf("the cache holds %d entries after the miss, want 1", idx.Stats().CachedResults)
	}
	const allowance = 512
	kept := int64(on) - int64(off)
	limit := int64(1.5*float64(res.Total)) + allowance
	t.Logf("%s: %d nodes, %d validations; a miss allocates %d bytes with the cache off, %d with it on: %d kept (%.2f per node), limit %d",
		req.Text, res.Total, res.Stats.Validations, off, on, kept, float64(kept)/float64(res.Total), limit)
	if kept > limit {
		t.Errorf("%s: storing the answer of %d nodes allocates %d bytes, want at most %d: the kept hits are not compressed", req.Text, res.Total, kept, limit)
	}
}

// TestFullCacheMissKeepsNothing: a miss keeps its answer only for a store the
// cache admits. On a full cache a validating miss allocates what the same
// miss allocates with the cache off, plus the key it looked up; while Run
// kept the answer before Put rejected it, it allocated the entry, the list
// of sets and the hits beside.
func TestFullCacheMissKeepsNothing(t *testing.T) {
	if cowtest.RaceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled scratch at random")
	}
	_, idx := tunedXMark(t, 0.25)
	req := Request{Kind: KindRPE, Text: "site//name", Limit: -1}
	missAllocs := func() float64 {
		return testing.AllocsPerRun(20, func() {
			if r, err := idx.Run(req); err != nil || r.CacheHit || r.Stats.Validations == 0 {
				t.Fatalf("%s: want a validating miss, got %+v hit=%v err=%v", req.Text, r.Stats, r.CacheHit, err)
			}
		})
	}
	idx.SetResultCache(0)
	off := missAllocs()
	idx.SetResultCache(1)
	if _, err := idx.Run(Request{Kind: KindPath, Text: "name", Limit: -1}); err != nil {
		t.Fatal(err)
	}
	if n := idx.Stats().CachedResults; n != 1 {
		t.Fatalf("the one-entry cache holds %d entries, want 1", n)
	}
	full := missAllocs()
	t.Logf("%s: a miss allocates %.0f times with the cache off, %.0f on a full cache", req.Text, off, full)
	if full > off+1 {
		t.Errorf("%s: a miss on a full cache allocates %.0f times, %.0f with the cache off, want the key alone more: it kept an answer the cache rejects", req.Text, full, off)
	}
}
