package shard

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dkindex"
	"dkindex/internal/datagen"
	"dkindex/internal/graph"
	"dkindex/internal/xmlgraph"
)

// corpus generates n small deterministic XMark documents with distinct seeds,
// so shards receive different but structurally similar slices.
func corpus(t testing.TB, n int) [][]byte {
	t.Helper()
	docs := make([][]byte, n)
	for i := range docs {
		cfg := datagen.XMarkScale(0.02)
		cfg.Seed = int64(i + 1)
		var buf bytes.Buffer
		if err := datagen.XMark(cfg).WriteXML(&buf); err != nil {
			t.Fatalf("generating document %d: %v", i, err)
		}
		docs[i] = buf.Bytes()
	}
	return docs
}

// monolith builds the unsharded reference index from the same document
// sequence the engine receives.
func monolith(t testing.TB, docs [][]byte) *dkindex.Index {
	t.Helper()
	g := graph.New()
	g.AddRoot()
	idx := dkindex.FromGraph(g, nil)
	for i, doc := range docs {
		if _, err := idx.Apply(dkindex.Mutation{Op: dkindex.MutAddDocument, Doc: doc, DocOptions: loadOpts()}); err != nil {
			t.Fatalf("monolith: document %d: %v", i, err)
		}
	}
	return idx
}

func loadOpts() *xmlgraph.Options { return datagen.LoadOptions() }

// engineWith builds an in-memory engine with n shards holding docs.
func engineWith(t testing.TB, n int, docs [][]byte) *Engine {
	t.Helper()
	e, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	for i, doc := range docs {
		if err := apply(t, e, dkindex.Mutation{Op: dkindex.MutAddDocument, Doc: doc, DocOptions: loadOpts()}); err != nil {
			t.Fatalf("engine: document %d: %v", i, err)
		}
	}
	return e
}

// apply sends one mutation through the engine as a batch of one and returns
// its ack's error.
func apply(t testing.TB, e *Engine, m dkindex.Mutation) error {
	t.Helper()
	acks, err := e.ApplyBatch([]dkindex.Mutation{m})
	if err != nil {
		t.Fatal(err)
	}
	return acks[0].Err
}

// dataNodes sums the shards' data nodes into the monolithic count: every
// shard holds a local root, and the logical view has exactly one.
func dataNodes(e *Engine) int {
	n := 1
	for s := 0; s < e.NumShards(); s++ {
		n += e.Shard(s).Stats().DataNodes - 1
	}
	return n
}

// referenceQueries exercises all three languages over XMark structure,
// including a root-matching query (the ROOT label) so merge-time root
// deduplication is covered.
func referenceQueries() []dkindex.Request {
	return []dkindex.Request{
		{Kind: dkindex.KindPath, Text: "site.people.person.name"},
		{Kind: dkindex.KindPath, Text: "item.name"},
		{Kind: dkindex.KindPath, Text: "ROOT"},
		{Kind: dkindex.KindPath, Text: "ROOT.site"},
		{Kind: dkindex.KindRPE, Text: "site.regions._.item"},
		{Kind: dkindex.KindRPE, Text: "site//name"},
		{Kind: dkindex.KindRPE, Text: "person.(watches)?.watch"},
		{Kind: dkindex.KindTwig, Text: "item[incategory].name"},
		{Kind: dkindex.KindTwig, Text: "person[profile.interest].name"},
		{Kind: dkindex.KindPath, Text: "no_such_label_anywhere"},
	}
}

func sameNodes(a, b []dkindex.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMergedBitIdentity is the core exactness check: for every shard count
// and every query language, the engine's merged result is bit-identical to
// the monolithic index over the same documents — nodes, order and total.
func TestMergedBitIdentity(t *testing.T) {
	docs := corpus(t, 5)
	mono := monolith(t, docs)
	for _, n := range []int{1, 2, 3, 4, 8} {
		e := engineWith(t, n, docs)
		if got, mapped, want := dataNodes(e), e.Map().NumNodes(), mono.Stats().DataNodes; got != want || mapped != want {
			t.Fatalf("shards=%d: engine has %d data nodes and maps %d, monolith %d", n, got, mapped, want)
		}
		for _, req := range referenceQueries() {
			want, err := mono.Run(req)
			if err != nil {
				t.Fatalf("monolith %q: %v", req.Text, err)
			}
			got, err := e.Run(req)
			if err != nil {
				t.Fatalf("shards=%d %q: %v", n, req.Text, err)
			}
			if !sameNodes(got.Nodes, want.Nodes) {
				t.Errorf("shards=%d %s %q: nodes %v, want %v", n, req.Kind, req.Text, got.Nodes, want.Nodes)
			}
			if got.Total != want.Total {
				t.Errorf("shards=%d %s %q: total %d, want %d", n, req.Kind, req.Text, got.Total, want.Total)
			}
			for _, id := range got.Nodes {
				if gl, wl := got.LabelName(id), want.LabelName(id); gl != wl {
					t.Errorf("shards=%d %q: node %d label %q, want %q", n, req.Text, id, gl, wl)
				}
			}
		}
	}
}

// TestMergedBitIdentityNasaDblp extends the identity audit to the other two
// dataset families: broader/deeper NASA and the citation-dense DBLP, each as
// a multi-document corpus sharded four ways.
func TestMergedBitIdentityNasaDblp(t *testing.T) {
	type family struct {
		name string
		gen  func(seed int64) *xmlgraph.Elem
		reqs []dkindex.Request
	}
	families := []family{
		{
			name: "nasa",
			gen: func(seed int64) *xmlgraph.Elem {
				cfg := datagen.NASAScale(0.03)
				cfg.Seed = seed
				return datagen.NASA(cfg)
			},
			reqs: []dkindex.Request{
				{Kind: dkindex.KindPath, Text: "datasets.dataset.title"},
				{Kind: dkindex.KindRPE, Text: "dataset//keyword"},
				{Kind: dkindex.KindTwig, Text: "dataset[author].title"},
			},
		},
		{
			name: "dblp",
			gen: func(seed int64) *xmlgraph.Elem {
				cfg := datagen.DBLPScale(0.03)
				cfg.Seed = seed
				return datagen.DBLP(cfg)
			},
			reqs: []dkindex.Request{
				{Kind: dkindex.KindPath, Text: "dblp.article.title"},
				{Kind: dkindex.KindRPE, Text: "dblp//author"},
				{Kind: dkindex.KindTwig, Text: "article[cite].year"},
			},
		},
	}
	for _, f := range families {
		t.Run(f.name, func(t *testing.T) {
			docs := make([][]byte, 4)
			for i := range docs {
				var buf bytes.Buffer
				if err := f.gen(int64(i + 1)).WriteXML(&buf); err != nil {
					t.Fatalf("generating document %d: %v", i, err)
				}
				docs[i] = buf.Bytes()
			}
			mono := monolith(t, docs)
			e := engineWith(t, 4, docs)
			for _, req := range f.reqs {
				want, err := mono.Run(req)
				if err != nil {
					t.Fatalf("monolith %q: %v", req.Text, err)
				}
				got, err := e.Run(req)
				if err != nil {
					t.Fatalf("engine %q: %v", req.Text, err)
				}
				if !sameNodes(got.Nodes, want.Nodes) {
					t.Errorf("%s %q: nodes %v, want %v", req.Kind, req.Text, got.Nodes, want.Nodes)
				}
				if got.Total != want.Total {
					t.Errorf("%s %q: total %d, want %d", req.Kind, req.Text, got.Total, want.Total)
				}
			}
		})
	}
}

// TestLimitBitIdentity checks that limits applied inside the shards during
// scatter still merge into exactly the monolithic evaluator's limited output:
// same truncated prefix, and the exact untruncated total.
func TestLimitBitIdentity(t *testing.T) {
	docs := corpus(t, 4)
	mono := monolith(t, docs)
	e := engineWith(t, 3, docs)
	for _, base := range referenceQueries() {
		for _, limit := range []int{-1, 1, 2, 7, 1 << 20} {
			req := base
			req.Limit = limit
			want, err := mono.Run(req)
			if err != nil {
				t.Fatalf("monolith %q: %v", req.Text, err)
			}
			got, err := e.Run(req)
			if err != nil {
				t.Fatalf("%q limit %d: %v", req.Text, limit, err)
			}
			if !sameNodes(got.Nodes, want.Nodes) {
				t.Errorf("%s %q limit %d: nodes %v, want %v", req.Kind, req.Text, limit, got.Nodes, want.Nodes)
			}
			if got.Total != want.Total {
				t.Errorf("%s %q limit %d: total %d, want %d", req.Kind, req.Text, limit, got.Total, want.Total)
			}
			if limit < 0 && len(got.Nodes) != 0 {
				t.Errorf("%q count-only returned %d nodes", req.Text, len(got.Nodes))
			}
		}
	}
}

// TestCacheWarmthAcrossShards is the over-invalidation fix: cached results
// are keyed per shard generation, so a write routed to shard A must leave
// shard B's cache warm — only A re-evaluates.
func TestCacheWarmthAcrossShards(t *testing.T) {
	docs := corpus(t, 2)
	e := engineWith(t, 2, docs) // doc 0 -> shard 0, doc 1 -> shard 1
	req := dkindex.Request{Kind: dkindex.KindPath, Text: "site.people.person.name"}

	if _, err := e.Run(req); err != nil { // populate both shard caches
		t.Fatal(err)
	}
	warm, err := e.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Fatal("second engine run should hit every shard's cache")
	}

	gen0, gen1 := e.Shard(0).Generation(), e.Shard(1).Generation()
	// The next document routes round-robin to shard 0 (2 docs committed).
	target := e.Map().NextShard()
	if target != 0 {
		t.Fatalf("expected next document on shard 0, got %d", target)
	}
	if err := apply(t, e, dkindex.Mutation{Op: dkindex.MutAddDocument, Doc: docs[0], DocOptions: loadOpts()}); err != nil {
		t.Fatal(err)
	}
	if e.Shard(0).Generation() == gen0 {
		t.Error("write to shard 0 did not move its generation")
	}
	if got := e.Shard(1).Generation(); got != gen1 {
		t.Errorf("write to shard 0 moved shard 1's generation %d -> %d", gen1, got)
	}

	// The merged run right after the write is a partial hit: shard 0 must
	// re-evaluate (its generation moved), so the engine-level CacheHit is
	// false...
	merged, err := e.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if merged.CacheHit {
		t.Error("merged result claimed a full cache hit after one shard was written")
	}
	// ...while shard 1, untouched by the write, still answers from its cache
	// — the over-invalidation per-shard generations exist to prevent.
	resB, err := e.Shard(1).Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if !resB.CacheHit {
		t.Error("untouched shard's cache went cold after a write to another shard")
	}
	// The partial-hit run re-populated shard 0, so the next merged run is a
	// full hit again.
	rewarmed, err := e.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if !rewarmed.CacheHit {
		t.Error("merged run did not re-warm the written shard's cache")
	}
}

// TestRouterEdgeCases covers the degenerate scatter shapes: shards with no
// documents at all, every result living on one shard, and the merge staying
// strictly sorted (duplicate-free) even when the root matches on all shards.
func TestRouterEdgeCases(t *testing.T) {
	// 4 shards, 2 documents: shards 2 and 3 hold only their local root.
	xdocs := corpus(t, 1)
	var nasa bytes.Buffer
	ncfg := datagen.NASAScale(0.02)
	if err := datagen.NASA(ncfg).WriteXML(&nasa); err != nil {
		t.Fatal(err)
	}
	docs := [][]byte{xdocs[0], nasa.Bytes()} // shard 0: XMark, shard 1: NASA
	mono := monolith(t, docs)
	e := engineWith(t, 4, docs)

	cases := []dkindex.Request{
		// All results on shard 1 (NASA labels are unknown to the XMark doc).
		{Kind: dkindex.KindPath, Text: "dataset.title"},
		// All results on shard 0.
		{Kind: dkindex.KindPath, Text: "site.people.person.name"},
		// Root matches on every shard (including empty ones): must merge to
		// the single global root.
		{Kind: dkindex.KindPath, Text: "ROOT"},
		// Matches nothing anywhere.
		{Kind: dkindex.KindPath, Text: "zzz_nope"},
	}
	for _, req := range cases {
		want, err := mono.Run(req)
		if err != nil {
			t.Fatalf("monolith %q: %v", req.Text, err)
		}
		got, err := e.Run(req)
		if err != nil {
			t.Fatalf("%q: %v", req.Text, err)
		}
		if !sameNodes(got.Nodes, want.Nodes) || got.Total != want.Total {
			t.Errorf("%q: nodes/total (%v, %d), want (%v, %d)", req.Text, got.Nodes, got.Total, want.Nodes, want.Total)
		}
		for i := 1; i < len(got.Nodes); i++ {
			if got.Nodes[i] <= got.Nodes[i-1] {
				t.Errorf("%q: merged result not strictly sorted at %d: %v", req.Text, i, got.Nodes)
			}
		}
	}
}

// TestEdgeMutationRouting checks edge mutations translate to the owning
// shard, cross-shard edges are rejected with ErrCrossShard, and a same-shard
// edge insert affects queries exactly like the monolithic index.
func TestEdgeMutationRouting(t *testing.T) {
	docs := corpus(t, 2)
	mono := monolith(t, docs)
	e := engineWith(t, 2, docs)
	m := e.Map()

	// Pick real nodes via queries: a person and an item on shard 0 (no
	// person->item edge exists in XMark, so the insert is always new), and an
	// item on shard 1 for the cross-shard case.
	globalWithShard := func(path string, shard int) dkindex.NodeID {
		t.Helper()
		res, err := e.Run(dkindex.Request{Kind: dkindex.KindPath, Text: path})
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range res.Nodes {
			if s, _, ok := m.Locate(id); ok && s == shard {
				return id
			}
		}
		t.Fatalf("no %q node on shard %d", path, shard)
		return 0
	}
	person0 := globalWithShard("site.people.person", 0)
	item0 := globalWithShard("item", 0)
	item1 := globalWithShard("item", 1)

	if err := apply(t, e, dkindex.Mutation{Op: dkindex.MutAddEdge, From: person0, To: item0}); err != nil {
		t.Fatalf("same-shard edge: %v", err)
	}
	if _, err := mono.Apply(dkindex.Mutation{Op: dkindex.MutAddEdge, From: person0, To: item0}); err != nil {
		t.Fatalf("monolith edge: %v", err)
	}
	if err := apply(t, e, dkindex.Mutation{Op: dkindex.MutAddEdge, From: person0, To: item1}); !errors.Is(err, ErrCrossShard) {
		t.Fatalf("cross-shard edge: err=%v, want ErrCrossShard", err)
	}

	// Root edges adopt the other endpoint's shard.
	if err := apply(t, e, dkindex.Mutation{Op: dkindex.MutAddEdge, From: 0, To: item1}); err != nil {
		t.Fatalf("root->shard1 edge: %v", err)
	}
	if _, err := mono.Apply(dkindex.Mutation{Op: dkindex.MutAddEdge, From: 0, To: item1}); err != nil {
		t.Fatalf("monolith root edge: %v", err)
	}

	// Out-of-range endpoints are rejected before reaching a shard.
	if err := apply(t, e, dkindex.Mutation{Op: dkindex.MutAddEdge, From: person0, To: 1 << 30}); err == nil {
		t.Error("edge to out-of-range node accepted")
	}

	for _, req := range append(referenceQueries(),
		dkindex.Request{Kind: dkindex.KindPath, Text: "person.item.name"},
		dkindex.Request{Kind: dkindex.KindPath, Text: "ROOT.item"}) {
		want, _ := mono.Run(req)
		got, err := e.Run(req)
		if err != nil {
			t.Fatalf("%q: %v", req.Text, err)
		}
		if !sameNodes(got.Nodes, want.Nodes) {
			t.Errorf("%q after edges: nodes %v, want %v", req.Text, got.Nodes, want.Nodes)
		}
	}

	if err := apply(t, e, dkindex.Mutation{Op: dkindex.MutRemoveEdge, From: person0, To: item0}); err != nil {
		t.Fatalf("remove same-shard edge: %v", err)
	}
	if _, err := mono.Apply(dkindex.Mutation{Op: dkindex.MutRemoveEdge, From: person0, To: item0}); err != nil {
		t.Fatalf("monolith remove edge: %v", err)
	}
	res, _ := e.Run(dkindex.Request{Kind: dkindex.KindPath, Text: "person.item.name"})
	wres, _ := mono.Run(dkindex.Request{Kind: dkindex.KindPath, Text: "person.item.name"})
	if !sameNodes(res.Nodes, wres.Nodes) {
		t.Error("results diverge after edge removal")
	}
}

// TestBatchSplitsAcrossShards checks ApplyBatch routes a mixed batch:
// documents round-robin to their shards with global mappings, a malformed
// document rejected without taking a map slot, and every summary-level op
// rejected in place by name without a commit anywhere.
func TestBatchSplitsAcrossShards(t *testing.T) {
	docs := corpus(t, 4)
	e, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	retired := []dkindex.Mutation{
		{Op: dkindex.MutPromote, Label: "name", K: 2},
		{Op: dkindex.MutDemote, Reqs: map[string]int{"name": 1}},
		{Op: dkindex.MutSetRequirements, Reqs: map[string]int{"name": 1}},
		{Op: dkindex.MutOptimize},
		{Op: dkindex.MutCompact},
	}
	ms := []dkindex.Mutation{
		{Op: dkindex.MutAddDocument, Doc: docs[0], DocOptions: loadOpts()},
		{Op: dkindex.MutAddDocument, Doc: docs[1], DocOptions: loadOpts()},
		{Op: dkindex.MutAddDocument, Doc: docs[2], DocOptions: loadOpts()},
		{Op: dkindex.MutAddDocument, Doc: []byte("<unclosed"), DocOptions: loadOpts()},
	}
	acks, err := e.ApplyBatch(ms)
	if err != nil {
		t.Fatal(err)
	}
	if acks[3].Err == nil {
		t.Error("malformed document accepted")
	}
	// Each committed document lives on its round-robin shard.
	for i, want := range []int{0, 1, 0} {
		if acks[i].Err != nil || len(acks[i].Mapping) < 2 {
			t.Fatalf("document %d: err %v, mapping of %d nodes", i, acks[i].Err, len(acks[i].Mapping))
		}
		if s, _, ok := e.Map().Locate(acks[i].Mapping[1]); !ok || s != want {
			t.Errorf("document %d: first grafted node on shard %d, want %d", i, s, want)
		}
	}
	// The rejected document must not occupy a map slot: the next document
	// still goes to shard 1 (3 committed documents, round-robin).
	if got := e.Map().NumDocs(); got != 3 {
		t.Fatalf("map records %d documents, want 3", got)
	}
	if got := e.Map().NextShard(); got != 1 {
		t.Errorf("next shard %d, want 1", got)
	}
	// Mappings are global: the document root identifies with the global root,
	// doc 0's grafted nodes start at 1, and doc 1's start right after doc 0's
	// run — exactly the ids a monolithic index would hand out.
	if acks[0].Mapping[0] != 0 {
		t.Errorf("doc 0 maps its root to %d, want the global root 0", acks[0].Mapping[0])
	}
	if acks[0].Mapping[1] != 1 {
		t.Errorf("doc 0's first grafted node is %d, want 1", acks[0].Mapping[1])
	}
	if want := dkindex.NodeID(len(acks[0].Mapping)); acks[1].Mapping[1] != want {
		t.Errorf("doc 1's first grafted node is %d, want %d", acks[1].Mapping[1], want)
	}

	// Summary-level ops are turned away in place, beside a document that
	// still commits, and no shard commits on their behalf.
	gens := []uint64{e.Shard(0).Generation(), e.Shard(1).Generation()}
	acks, err = e.ApplyBatch(retired)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range retired {
		if err := acks[i].Err; err == nil || !strings.Contains(err.Error(), string(m.Op)+" is not supported") {
			t.Errorf("%s on the engine: err=%v, want a rejection naming the op", m.Op, err)
		}
	}
	if got := []uint64{e.Shard(0).Generation(), e.Shard(1).Generation()}; !reflect.DeepEqual(got, gens) {
		t.Errorf("rejected ops moved shard generations %v -> %v", gens, got)
	}
}

// TestShardConcurrentReadersWriters is the -race stress: concurrent merged
// Run readers race per-shard commits (documents, edge batches split across
// every shard, and batches mixing both) through the engine, checking merged
// results are always internally consistent (sorted, duplicate-free) and
// never error.
func TestShardConcurrentReadersWriters(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	docs := corpus(t, 4)
	e := engineWith(t, 4, docs)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// One intra-document edge per shard: its first document's first two
	// grafted nodes. The writer adds the four edges in one batch and removes
	// them in the next (flip turns the parked removal into the first add).
	m := e.Map()
	edges := make([]dkindex.Mutation, m.NumShards())
	for s := range edges {
		from, _ := m.ToGlobal(s, 1)
		to, _ := m.ToGlobal(s, 2)
		edges[s] = dkindex.Mutation{Op: dkindex.MutRemoveEdge, From: from, To: to}
	}
	flip := func() []dkindex.Mutation {
		for s := range edges {
			if edges[s].Op == dkindex.MutAddEdge {
				edges[s].Op = dkindex.MutRemoveEdge
			} else {
				edges[s].Op = dkindex.MutAddEdge
			}
		}
		return edges
	}

	reqs := referenceQueries()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				req := reqs[rng.Intn(len(reqs))]
				req.Limit = rng.Intn(5) - 1
				res, err := e.Run(req)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				for i := 1; i < len(res.Nodes); i++ {
					if res.Nodes[i] <= res.Nodes[i-1] {
						t.Errorf("reader %d: unsorted/duplicated merge at %d", r, i)
						return
					}
				}
			}
		}(r)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		rng := rand.New(rand.NewSource(99))
		deadline := time.Now().Add(800 * time.Millisecond)
		for time.Now().Before(deadline) {
			doc := dkindex.Mutation{Op: dkindex.MutAddDocument, Doc: docs[rng.Intn(len(docs))], DocOptions: loadOpts()}
			var batch []dkindex.Mutation
			switch rng.Intn(3) {
			case 0:
				batch = []dkindex.Mutation{doc}
			case 1:
				batch = flip()
			case 2:
				batch = append([]dkindex.Mutation{doc}, flip()...)
			}
			acks, err := e.ApplyBatch(batch)
			if err != nil {
				t.Errorf("writer: %v", err)
				return
			}
			for i, a := range acks {
				if a.Err != nil {
					t.Errorf("writer: %s member %d: %v", batch[i].Op, i, a.Err)
					return
				}
			}
		}
	}()
	wg.Wait()

	// Settled state: the map accounts for every node the shards hold.
	if got, want := e.Map().NumNodes(), dataNodes(e); got != want {
		t.Errorf("map nodes %d != engine data nodes %d", got, want)
	}
}
