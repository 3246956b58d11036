package dkindex

import (
	"bytes"
	"testing"
)

func TestRunLimit(t *testing.T) {
	idx := open(t)
	full, err := idx.Run(Request{Text: "movie.title"})
	if err != nil {
		t.Fatal(err)
	}
	if full.Total != 3 || len(full.Nodes) != 3 {
		t.Fatalf("movie.title total = %d, want 3", full.Total)
	}
	capped, err := idx.Run(Request{Text: "movie.title", Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if capped.Total != 3 || len(capped.Nodes) != 2 {
		t.Errorf("limit 2: total %d nodes %d", capped.Total, len(capped.Nodes))
	}
	for i := range capped.Nodes {
		if capped.Nodes[i] != full.Nodes[i] {
			t.Errorf("limited nodes are not a prefix at %d", i)
		}
	}
	countOnly, err := idx.Run(Request{Text: "movie.title", Limit: -1})
	if err != nil {
		t.Fatal(err)
	}
	if countOnly.Total != 3 || countOnly.Nodes != nil {
		t.Errorf("limit -1: total %d nodes %v", countOnly.Total, countOnly.Nodes)
	}
	big, err := idx.Run(Request{Text: "movie.title", Limit: 100})
	if err != nil || len(big.Nodes) != 3 {
		t.Errorf("limit beyond total: %v nodes %d", err, len(big.Nodes))
	}
	// Result labels resolve against the answering snapshot.
	for _, n := range full.Nodes {
		if full.LabelName(n) != "title" {
			t.Errorf("node %d label %q", n, full.LabelName(n))
		}
	}
}

// TestResultCacheHit checks the second identical query is served from the
// cache with identical results and cost, and that Limit variants share one
// entry (the cache stores the full result set).
func TestResultCacheHit(t *testing.T) {
	idx := open(t)
	first, err := idx.Run(Request{Text: "director.movie.title"})
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Error("first query claims a cache hit")
	}
	if idx.Stats().CachedResults == 0 {
		t.Fatal("miss did not populate the cache")
	}
	second, err := idx.Run(Request{Text: "director.movie.title"})
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("repeat missed the cache")
	}
	if second.Stats != first.Stats || second.Total != first.Total {
		t.Errorf("cached answer differs: %+v vs %+v", second, first)
	}
	limited, err := idx.Run(Request{Text: "director.movie.title", Limit: 1})
	if err != nil || !limited.CacheHit || len(limited.Nodes) != 1 || limited.Total != first.Total {
		t.Errorf("limited repeat: err %v hit %v nodes %d total %d", err, limited.CacheHit, len(limited.Nodes), limited.Total)
	}
	// Different kinds never collide even on equal text.
	if res, err := idx.Run(Request{Kind: KindRPE, Text: "director.movie.title"}); err != nil || res.CacheHit {
		t.Errorf("kind collision: err %v hit %v", err, res.CacheHit)
	}
	// Mutating the returned slice must not poison the cache.
	if len(second.Nodes) > 0 {
		second.Nodes[0] = -999
		again, _ := idx.Run(Request{Text: "director.movie.title"})
		if again.Nodes[0] == -999 {
			t.Error("caller mutation leaked into the cache")
		}
	}
}

// TestCacheInvalidationOnEveryMutation drives each mutation type and
// asserts it bumps the generation, which invalidates the cache wholesale.
func TestCacheInvalidationOnEveryMutation(t *testing.T) {
	idx := open(t)
	var saved bytes.Buffer
	if err := idx.Save(&saved); err != nil {
		t.Fatal(err)
	}
	idx.WatchLoad()

	warm := func() uint64 {
		t.Helper()
		res, err := idx.Run(Request{Text: "director.movie.title"})
		if err != nil {
			t.Fatal(err)
		}
		res2, err := idx.Run(Request{Text: "director.movie.title"})
		if err != nil {
			t.Fatal(err)
		}
		if !res2.CacheHit {
			t.Fatal("warm-up repeat missed")
		}
		return res.Generation
	}

	apply := func(m Mutation) func() error {
		return func() error { _, err := idx.Apply(m); return err }
	}
	mutations := []struct {
		name string
		op   func() error
	}{
		{"add_edge", apply(Mutation{Op: MutAddEdge, From: 0, To: 5})},
		{"remove_edge", apply(Mutation{Op: MutRemoveEdge, From: 0, To: 5})},
		{"add_document", apply(Mutation{Op: MutAddDocument, Doc: []byte("<movieDB><movie><title/></movie></movieDB>")})},
		{"promote", apply(Mutation{Op: MutPromote, Label: "title", K: 2})},
		{"demote", apply(Mutation{Op: MutDemote, Reqs: map[string]int{"title": 1}})},
		{"set_requirements", apply(Mutation{Op: MutSetRequirements, Reqs: map[string]int{"title": 2}})},
		{"Tune", func() error { return idx.Tune(20, 1) }},
		{"optimize", apply(Mutation{Op: MutOptimize})},
		{"compact", apply(Mutation{Op: MutCompact})},
		{"Reload", func() error { return idx.Reload(bytes.NewReader(saved.Bytes())) }},
	}
	for _, m := range mutations {
		genBefore := warm()
		if err := m.op(); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if got := idx.Generation(); got != genBefore+1 {
			t.Errorf("%s: generation %d, want %d", m.name, got, genBefore+1)
		}
		res, err := idx.Run(Request{Text: "director.movie.title"})
		if err != nil {
			t.Fatalf("%s: query after: %v", m.name, err)
		}
		if res.CacheHit {
			t.Errorf("%s: stale cache entry served after mutation", m.name)
		}
		if res.Generation != genBefore+1 {
			t.Errorf("%s: result generation %d, want %d", m.name, res.Generation, genBefore+1)
		}
	}
}

func TestRunBatchSingleSnapshot(t *testing.T) {
	idx := open(t)
	out := idx.RunBatch([]Request{
		{Text: "director.movie.title"},
		{Kind: KindTwig, Text: "movie[title]"},
		{Text: "not..a..query"},
		{Kind: KindRPE, Text: "director//name"},
	})
	if len(out) != 4 {
		t.Fatalf("batch returned %d entries", len(out))
	}
	if out[2].Err == nil {
		t.Error("malformed item did not error")
	}
	gen := out[0].Result.Generation
	for i, br := range out {
		if br.Err != nil {
			continue
		}
		if br.Result.Generation != gen {
			t.Errorf("item %d generation %d != %d", i, br.Result.Generation, gen)
		}
	}
}

func TestSetResultCacheDisables(t *testing.T) {
	idx := open(t)
	idx.SetResultCache(0)
	for i := 0; i < 3; i++ {
		res, err := idx.Run(Request{Text: "director.movie.title"})
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheHit {
			t.Fatal("disabled cache produced a hit")
		}
	}
	if idx.Stats().CachedResults != 0 {
		t.Errorf("disabled cache holds %d entries", idx.Stats().CachedResults)
	}
	// Re-enabling works and caches again.
	idx.SetResultCache(16)
	if _, err := idx.Run(Request{Text: "director.movie.title"}); err != nil {
		t.Fatal(err)
	}
	res, err := idx.Run(Request{Text: "director.movie.title"})
	if err != nil || !res.CacheHit {
		t.Errorf("re-enabled cache: err %v hit %v", err, res.CacheHit)
	}
}

// TestSnapshotIsolationAcrossMutation holds a result from before a mutation
// and checks its label view stays coherent (the old snapshot's table) while
// new queries see the new state.
func TestSnapshotIsolationAcrossMutation(t *testing.T) {
	idx := open(t)
	before, err := idx.Run(Request{Text: "director.movie.title"})
	if err != nil {
		t.Fatal(err)
	}
	doc := "<movieDB><genre><movie><title/></movie></genre></movieDB>"
	if _, err := idx.Apply(Mutation{Op: MutAddDocument, Doc: []byte(doc)}); err != nil {
		t.Fatal(err)
	}
	// The held result still resolves labels against its own snapshot.
	for _, n := range before.Nodes {
		if before.LabelName(n) != "title" {
			t.Errorf("held result label %q", before.LabelName(n))
		}
	}
	after, err := idx.Run(Request{Text: "genre.movie.title"})
	if err != nil {
		t.Fatal(err)
	}
	if after.Total != 1 {
		t.Errorf("new label path found %d results, want 1", after.Total)
	}
	if after.Generation != before.Generation+1 {
		t.Errorf("generation %d -> %d, want +1", before.Generation, after.Generation)
	}
}
