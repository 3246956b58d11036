package apex

import (
	"math/rand"
	"testing"

	"dkindex/internal/datagen"
	"dkindex/internal/eval"
	"dkindex/internal/graph"
	"dkindex/internal/workload"
)

func load(t *testing.T, g *graph.Graph, specs map[string]int) []workload.WeightedQuery {
	t.Helper()
	out := make([]workload.WeightedQuery, 0, len(specs))
	rec := workload.NewRecorder()
	for s, c := range specs {
		q, err := eval.ParseQuery(g.Labels(), s)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < c; i++ {
			rec.Record(q)
		}
	}
	return append(out, rec.Load()...)
}

func TestBuildAndExactHit(t *testing.T) {
	g := graph.FigureOneMovies()
	l := load(t, g, map[string]int{"director.movie.title": 5, "actor.name": 3})
	a, err := Build(g, l, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Size() == 0 {
		t.Fatal("empty APEX")
	}
	q, _ := eval.ParseQuery(g.Labels(), "director.movie.title")
	res, cost := a.Eval(q)
	truth, _ := eval.Data(g, q)
	if !eval.SameResult(res, truth) {
		t.Errorf("exact hit: %v != %v", res, truth)
	}
	if cost.Validations != 0 || cost.DataNodesValidated != 0 {
		t.Errorf("frequent query should be a pure hash walk, cost=%+v", cost)
	}
}

func TestSuffixHitValidates(t *testing.T) {
	g := graph.FigureOneMovies()
	// Only "movie.title" is frequent; the longer query shares its suffix.
	l := load(t, g, map[string]int{"movie.title": 5})
	a, err := Build(g, l, 5)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := eval.ParseQuery(g.Labels(), "director.movie.title")
	res, cost := a.Eval(q)
	truth, _ := eval.Data(g, q)
	if !eval.SameResult(res, truth) {
		t.Errorf("suffix hit: %v != %v", res, truth)
	}
	if cost.Validations == 0 {
		t.Error("suffix hit should validate the prefix")
	}
}

func TestColdQueryFallsBack(t *testing.T) {
	g := graph.FigureOneMovies()
	l := load(t, g, map[string]int{"movie.title": 5})
	a, err := Build(g, l, 5)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := eval.ParseQuery(g.Labels(), "actor.name")
	res, cost := a.Eval(q)
	truth, _ := eval.Data(g, q)
	if !eval.SameResult(res, truth) {
		t.Errorf("cold query: %v != %v", res, truth)
	}
	if cost.DataNodesValidated == 0 {
		t.Error("cold query should fall back to the data graph")
	}
}

func TestSuffixSupportAggregates(t *testing.T) {
	g := graph.FigureOneMovies()
	// Two different queries share the suffix "title": support aggregates to
	// 4 even though each query alone has 2.
	l := load(t, g, map[string]int{"director.movie.title": 2, "movie.title": 2})
	a, err := Build(g, l, 4)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := eval.ParseQuery(g.Labels(), "title")
	res, cost := a.Eval(q)
	truth, _ := eval.Data(g, q)
	if !eval.SameResult(res, truth) {
		t.Errorf("title: %v != %v", res, truth)
	}
	if cost.Validations != 0 {
		t.Error("aggregated-support suffix should be indexed")
	}
}

func TestBuildErrors(t *testing.T) {
	g := graph.FigureOneMovies()
	if _, err := Build(g, nil, 1); err == nil {
		t.Error("empty load accepted")
	}
	l := load(t, g, map[string]int{"movie.title": 1})
	if _, err := Build(g, l, 100); err == nil {
		t.Error("unreachable support accepted")
	}
}

func TestStaleAfterUpdateRebuildFixes(t *testing.T) {
	// The paper's criticism, demonstrated: after a data change APEX's stored
	// extents are stale; Rebuild is its only recourse.
	g := graph.FigureOneMovies()
	l := load(t, g, map[string]int{"actor.movie.title": 5})
	a, err := Build(g, l, 5)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := eval.ParseQuery(g.Labels(), "actor.movie.title")
	before, _ := a.Eval(q)

	// New reference edge: actor 11 -> movie 9 makes title 16 reachable.
	g.AddEdge(11, 9)
	truth, _ := eval.Data(g, q)
	if eval.SameResult(before, truth) {
		t.Fatal("edge addition should change the result set")
	}
	stale, _ := a.Eval(q)
	if eval.SameResult(stale, truth) {
		t.Fatal("expected the un-rebuilt APEX to be stale (it has no update algorithm)")
	}
	fresh, err := a.Rebuild(l)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := fresh.Eval(q)
	if !eval.SameResult(got, truth) {
		t.Errorf("rebuilt APEX: %v != %v", got, truth)
	}
}

func TestRandomizedAgainstTruthOnWarmLoad(t *testing.T) {
	g, _, err := datagen.Graph(datagen.XMark(datagen.XMarkScale(0.02)))
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(g, workload.Config{N: 40, MinLen: 2, MaxLen: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	rec := workload.NewRecorder()
	rng := rand.New(rand.NewSource(1))
	for _, q := range w.Queries {
		for i := 0; i <= rng.Intn(4); i++ {
			rec.Record(q)
		}
	}
	a, err := Build(g, rec.Load(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.StoredNodes() == 0 {
		t.Fatal("no extents stored")
	}
	for _, q := range w.Queries {
		res, _ := a.Eval(q)
		truth, _ := eval.Data(g, q)
		if !eval.SameResult(res, truth) {
			t.Fatalf("query %s: %v != %v", q.Format(g.Labels()), res, truth)
		}
	}
}
