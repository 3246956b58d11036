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
	"dkindex/internal/obs"
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
		if _, err := e.Apply(dkindex.Mutation{Op: dkindex.MutAddDocument, Doc: doc, DocOptions: loadOpts()}); err != nil {
			t.Fatalf("engine: document %d: %v", i, err)
		}
	}
	return e
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
		if got, want := e.Stats().DataNodes, mono.Stats().DataNodes; got != want {
			t.Fatalf("shards=%d: engine has %d data nodes, monolith %d", n, got, want)
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

// TestRunBatchMerges checks the batch path produces the same merged results
// as item-by-item Run, with per-item errors in place.
func TestRunBatchMerges(t *testing.T) {
	docs := corpus(t, 3)
	e := engineWith(t, 2, docs)
	reqs := append(referenceQueries(), dkindex.Request{Kind: "bogus", Text: "x"})
	batch := e.RunBatch(reqs)
	if len(batch) != len(reqs) {
		t.Fatalf("batch returned %d results for %d requests", len(batch), len(reqs))
	}
	for i, req := range reqs {
		single, err := e.Run(req)
		if err != nil {
			if batch[i].Err == nil {
				t.Errorf("item %d: batch accepted what Run rejected (%v)", i, err)
			}
			continue
		}
		if batch[i].Err != nil {
			t.Errorf("item %d: %v", i, batch[i].Err)
			continue
		}
		if !sameNodes(batch[i].Result.Nodes, single.Nodes) || batch[i].Result.Total != single.Total {
			t.Errorf("item %d: batch result diverges from Run", i)
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

	gensBefore := e.Generations()
	// The next document routes round-robin to shard 0 (2 docs committed).
	target := e.Map().NextShard()
	if target != 0 {
		t.Fatalf("expected next document on shard 0, got %d", target)
	}
	if _, err := e.Apply(dkindex.Mutation{Op: dkindex.MutAddDocument, Doc: docs[0], DocOptions: loadOpts()}); err != nil {
		t.Fatal(err)
	}
	gensAfter := e.Generations()
	if gensAfter[0] == gensBefore[0] {
		t.Error("write to shard 0 did not move its generation")
	}
	if gensAfter[1] != gensBefore[1] {
		t.Errorf("write to shard 0 moved shard 1's generation %d -> %d", gensBefore[1], gensAfter[1])
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
	// — the over-invalidation the generation vector exists to prevent.
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

	if _, err := e.Apply(dkindex.Mutation{Op: dkindex.MutAddEdge, From: person0, To: item0}); err != nil {
		t.Fatalf("same-shard edge: %v", err)
	}
	if _, err := mono.Apply(dkindex.Mutation{Op: dkindex.MutAddEdge, From: person0, To: item0}); err != nil {
		t.Fatalf("monolith edge: %v", err)
	}
	if _, err := e.Apply(dkindex.Mutation{Op: dkindex.MutAddEdge, From: person0, To: item1}); !errors.Is(err, ErrCrossShard) {
		t.Fatalf("cross-shard edge: err=%v, want ErrCrossShard", err)
	}

	// Root edges adopt the other endpoint's shard.
	if _, err := e.Apply(dkindex.Mutation{Op: dkindex.MutAddEdge, From: 0, To: item1}); err != nil {
		t.Fatalf("root->shard1 edge: %v", err)
	}
	if _, err := mono.Apply(dkindex.Mutation{Op: dkindex.MutAddEdge, From: 0, To: item1}); err != nil {
		t.Fatalf("monolith root edge: %v", err)
	}

	// Out-of-range endpoints are rejected before reaching a shard.
	if _, err := e.Apply(dkindex.Mutation{Op: dkindex.MutAddEdge, From: person0, To: 1 << 30}); err == nil {
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

	if _, err := e.Apply(dkindex.Mutation{Op: dkindex.MutRemoveEdge, From: person0, To: item0}); err != nil {
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

// TestBroadcastMutations checks summary-level operations fan to every shard:
// promote tolerates shards that don't know the label, demote reshapes all of
// them, and results stay bit-identical to the monolithic index under the same
// operations.
func TestBroadcastMutations(t *testing.T) {
	docs := corpus(t, 3)
	mono := monolith(t, docs)
	e := engineWith(t, 2, docs)

	if _, err := e.Apply(dkindex.Mutation{Op: dkindex.MutPromote, Label: "name", K: 3}); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if _, err := mono.Apply(dkindex.Mutation{Op: dkindex.MutPromote, Label: "name", K: 3}); err != nil {
		t.Fatalf("monolith promote: %v", err)
	}
	if _, err := e.Apply(dkindex.Mutation{Op: dkindex.MutDemote, Reqs: map[string]int{"name": 1}}); err != nil {
		t.Fatalf("demote: %v", err)
	}
	if _, err := mono.Apply(dkindex.Mutation{Op: dkindex.MutDemote, Reqs: map[string]int{"name": 1}}); err != nil {
		t.Fatalf("monolith demote: %v", err)
	}
	if _, err := e.Apply(dkindex.Mutation{Op: dkindex.MutPromote, Label: "label_nobody_has", K: 2}); err == nil {
		t.Error("promoting a label unknown to every shard succeeded")
	}
	// Compaction is a known op the engine declines, with the reason: it would
	// renumber shard-local ids under the shard map.
	gens := e.Generations()
	if _, err := e.Apply(dkindex.Mutation{Op: dkindex.MutCompact}); err == nil ||
		!strings.Contains(err.Error(), "compact is not supported") || !reflect.DeepEqual(e.Generations(), gens) {
		t.Errorf("compact on the engine: err=%v, generations %v -> %v; want a named rejection and no commit", err, gens, e.Generations())
	}
	for _, req := range referenceQueries() {
		want, _ := mono.Run(req)
		got, err := e.Run(req)
		if err != nil {
			t.Fatalf("%q: %v", req.Text, err)
		}
		if !sameNodes(got.Nodes, want.Nodes) {
			t.Errorf("%q after promote/demote: nodes diverge", req.Text)
		}
	}

	// Optimize: record some load, then re-tune within a budget.
	e.WatchLoad()
	for i := 0; i < 4; i++ {
		if _, err := e.Run(dkindex.Request{Kind: dkindex.KindPath, Text: "site.people.person.name"}); err != nil {
			t.Fatal(err)
		}
	}
	if e.ObservedQueries() == 0 {
		t.Fatal("load recording observed nothing")
	}
	if _, err := e.Apply(dkindex.Mutation{Op: dkindex.MutOptimize, SizeBudget: e.Stats().IndexNodes * 2}); err != nil {
		t.Fatalf("optimize: %v", err)
	}
	for _, req := range referenceQueries() {
		want, _ := mono.Run(req)
		got, err := e.Run(req)
		if err != nil {
			t.Fatalf("%q: %v", req.Text, err)
		}
		if !sameNodes(got.Nodes, want.Nodes) {
			t.Errorf("%q after optimize: nodes diverge", req.Text)
		}
	}
}

// TestBatchSplitsAcrossShards checks ApplyBatchSharded routes a mixed batch:
// documents round-robin, edges to their owners, broadcast members to all
// shards, with engine sequence numbers contiguous and acks carrying the
// owning shard and generation vector.
func TestBatchSplitsAcrossShards(t *testing.T) {
	docs := corpus(t, 4)
	e, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	ms := []dkindex.Mutation{
		{Op: dkindex.MutAddDocument, Doc: docs[0], DocOptions: loadOpts()},
		{Op: dkindex.MutAddDocument, Doc: docs[1], DocOptions: loadOpts()},
		{Op: dkindex.MutPromote, Label: "name", K: 2},
		{Op: dkindex.MutAddDocument, Doc: docs[2], DocOptions: loadOpts()},
		{Op: dkindex.MutAddDocument, Doc: []byte("<unclosed"), DocOptions: loadOpts()},
	}
	acks, err := e.ApplyBatchSharded(ms)
	if err != nil {
		t.Fatal(err)
	}
	wantShard := []int{0, 1, -1, 0, 1}
	for i, a := range acks {
		if want := uint64(i + 1); a.Seq != want {
			t.Errorf("member %d: seq %d, want %d", i, a.Seq, want)
		}
		if a.Shard != wantShard[i] {
			t.Errorf("member %d: shard %d, want %d", i, a.Shard, wantShard[i])
		}
		if len(a.Generations) != 2 {
			t.Errorf("member %d: generation vector %v", i, a.Generations)
		}
		if a.Watermark != uint64(len(ms)) {
			t.Errorf("member %d: watermark %d, want %d", i, a.Watermark, len(ms))
		}
	}
	if acks[4].Err == nil {
		t.Error("malformed document accepted")
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
	if len(acks[0].Mapping) < 2 || len(acks[1].Mapping) < 2 {
		t.Fatal("document acks carry no mapping")
	}
	if acks[0].Mapping[0] != 0 {
		t.Errorf("doc 0 maps its root to %d, want the global root 0", acks[0].Mapping[0])
	}
	if acks[0].Mapping[1] != 1 {
		t.Errorf("doc 0's first grafted node is %d, want 1", acks[0].Mapping[1])
	}
	if want := dkindex.NodeID(len(acks[0].Mapping)); acks[1].Mapping[1] != want {
		t.Errorf("doc 1's first grafted node is %d, want %d", acks[1].Mapping[1], want)
	}
}

// TestPersistenceAndRepair checks durable sharding end to end: create, fill,
// write from several goroutines at once (every batch acknowledged), reopen
// (routing stays stable, results identical), and the crash window —
// a map that is one commit behind its shard store — repairs itself at open.
func TestPersistenceAndRepair(t *testing.T) {
	dir := t.TempDir() + "/data"
	docs := corpus(t, 3)
	e, err := CreateSharded(dir, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	maps := make([][]dkindex.NodeID, len(docs))
	for i, doc := range docs {
		ack, err := e.Apply(dkindex.Mutation{Op: dkindex.MutAddDocument, Doc: doc, DocOptions: loadOpts()})
		if err != nil {
			t.Fatalf("document %d: %v", i, err)
		}
		maps[i] = ack.Mapping
	}
	req := dkindex.Request{Kind: dkindex.KindPath, Text: "site.people.person.name"}
	before, err := e.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent writers on the durable engine: each batch carries one edge
	// per document, so it splits across both shards and their WAL commits
	// run side by side. Every member must be acknowledged; each writer adds
	// and then removes an edge of its own (a document's root element to one
	// of its last nodes), so the state every check below compares against is
	// unchanged.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 6; round++ {
				batch := make([]dkindex.Mutation, len(maps))
				for d, m := range maps {
					batch[d] = dkindex.Mutation{Op: dkindex.MutAddEdge, From: m[1], To: m[len(m)-1-w]}
					if round%2 == 1 {
						batch[d].Op = dkindex.MutRemoveEdge
					}
				}
				acks, err := e.ApplyBatch(batch)
				if err != nil {
					t.Errorf("writer %d round %d: %v", w, round, err)
					return
				}
				for d, a := range acks {
					if a.Err != nil {
						t.Errorf("writer %d round %d document %d: %v", w, round, d, a.Err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if after, err := e.Run(req); err != nil || !sameNodes(after.Nodes, before.Nodes) {
		t.Fatalf("paired edge batches changed the answer (err %v)", err)
	}
	beforeDocs := e.Map().NumDocs()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, reports, err := OpenSharded(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("got %d recovery reports, want 2", len(reports))
	}
	if got := e2.Map().NumDocs(); got != beforeDocs {
		t.Fatalf("reopened map has %d documents, want %d", got, beforeDocs)
	}
	after, err := e2.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if !sameNodes(after.Nodes, before.Nodes) || after.Total != before.Total {
		t.Fatal("results changed across restart")
	}
	// Routing stability: the next document continues the recorded round-robin.
	if got, want := e2.Map().NextShard(), beforeDocs%2; got != want {
		t.Errorf("next shard after reopen %d, want %d", got, want)
	}
	mono := monolith(t, docs)
	for _, r := range referenceQueries() {
		want, _ := mono.Run(r)
		got, err := e2.Run(r)
		if err != nil {
			t.Fatalf("%q: %v", r.Text, err)
		}
		if !sameNodes(got.Nodes, want.Nodes) {
			t.Errorf("%q diverges after reopen", r.Text)
		}
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash window: rewind the map by one document (the store keeps the
	// commit; the map write was lost). Open must repair, not refuse.
	m, err := loadMap(optFS(nil), dir)
	if err != nil {
		t.Fatal(err)
	}
	stale, err := newMap(m.NumShards(), m.docs[:len(m.docs)-1])
	if err != nil {
		t.Fatal(err)
	}
	if err := stale.save(optFS(nil), dir); err != nil {
		t.Fatal(err)
	}
	e3, _, err := OpenSharded(dir, nil)
	if err != nil {
		t.Fatalf("open after losing one map update: %v", err)
	}
	if got := e3.Map().NumDocs(); got != beforeDocs {
		t.Fatalf("repaired map has %d documents, want %d", got, beforeDocs)
	}
	repaired, err := e3.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if !sameNodes(repaired.Nodes, before.Nodes) || repaired.Total != before.Total {
		t.Fatal("results changed after map repair")
	}
	if err := e3.Close(); err != nil {
		t.Fatal(err)
	}

	// A shard with FEWER nodes than mapped is tampering, not a crash window:
	// open must refuse.
	grown, err := loadMap(optFS(nil), dir)
	if err != nil {
		t.Fatal(err)
	}
	bogus, err := grown.append(docRec{Shard: 0, Nodes: 17})
	if err != nil {
		t.Fatal(err)
	}
	if err := bogus.save(optFS(nil), dir); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenSharded(dir, nil); err == nil {
		t.Fatal("open accepted a map claiming more nodes than the stores hold")
	}
}

// TestObserverWiring smoke-checks the dk_shard_* surface: shard count gauge,
// fan-out observations on reads, per-shard commit counters on writes.
func TestObserverWiring(t *testing.T) {
	docs := corpus(t, 2)
	e := engineWith(t, 2, docs)
	o := obs.NewObserver()
	e.Observe(o)
	if _, err := e.Run(dkindex.Request{Kind: dkindex.KindPath, Text: "item.name"}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Apply(dkindex.Mutation{Op: dkindex.MutAddDocument, Doc: docs[0], DocOptions: loadOpts()}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := o.Registry.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		obs.MetricShards, obs.MetricShardRequests, obs.MetricShardFanoutSeconds,
		obs.MetricShardMergeSeconds, obs.MetricShardSkewSeconds,
		obs.MetricShardCommits, obs.MetricShardGeneration,
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("metric %s missing from exposition:\n%s", want, text[:min(len(text), 400)])
		}
	}
}

// TestShardConcurrentReadersWriters is the -race stress: concurrent Run and
// RunBatch readers race per-shard commits (documents, edges, promotions)
// through the engine, checking merged results are always internally
// consistent (sorted, duplicate-free) and never error.
func TestShardConcurrentReadersWriters(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	docs := corpus(t, 4)
	e := engineWith(t, 4, docs)
	stop := make(chan struct{})
	var wg sync.WaitGroup

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
				if rng.Intn(4) == 0 {
					for _, br := range e.RunBatch([]dkindex.Request{req, req}) {
						if br.Err != nil {
							t.Errorf("reader %d batch: %v", r, br.Err)
							return
						}
					}
					continue
				}
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
		rng := rand.New(rand.NewSource(99))
		deadline := time.Now().Add(800 * time.Millisecond)
		for time.Now().Before(deadline) {
			switch rng.Intn(3) {
			case 0:
				if _, err := e.Apply(dkindex.Mutation{Op: dkindex.MutAddDocument, Doc: docs[rng.Intn(len(docs))], DocOptions: loadOpts()}); err != nil {
					t.Errorf("writer: add document: %v", err)
					return
				}
			case 1:
				if _, err := e.Apply(dkindex.Mutation{Op: dkindex.MutPromote, Label: "name", K: 2 + rng.Intn(2)}); err != nil {
					t.Errorf("writer: promote: %v", err)
					return
				}
			case 2:
				if _, err := e.ApplyBatchSharded([]dkindex.Mutation{
					{Op: dkindex.MutAddDocument, Doc: docs[rng.Intn(len(docs))], DocOptions: loadOpts()},
					{Op: dkindex.MutDemote, Reqs: map[string]int{"name": 1}},
				}); err != nil {
					t.Errorf("writer: batch: %v", err)
					return
				}
			}
		}
		close(stop)
	}()
	wg.Wait()

	// Settled state must still be exact vs the engine's own single-shard twin.
	if e.Map().NumNodes() != e.Stats().DataNodes {
		t.Errorf("map nodes %d != engine data nodes %d", e.Map().NumNodes(), e.Stats().DataNodes)
	}
}
