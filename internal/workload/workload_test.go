package workload

import (
	"slices"
	"strings"
	"testing"

	"dkindex/internal/core"
	"dkindex/internal/datagen"
	"dkindex/internal/eval"
	"dkindex/internal/graph"
)

func TestGenerateBasics(t *testing.T) {
	g := xmarkGraph(t, 0.02)
	w, err := Generate(g, DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 100 {
		t.Errorf("generated %d queries, want 100", w.Len())
	}
	seen := make(map[string]bool)
	for _, q := range w.Queries {
		if len(q) < 2 || len(q) > 5 {
			t.Errorf("query %s has %d labels, want 2..5", q.Format(g.Labels()), len(q))
		}
		key := q.Format(g.Labels())
		if seen[key] {
			t.Errorf("duplicate query %s", key)
		}
		seen[key] = true
		// Paper protocol: queries are drawn from the data, so each has
		// results.
		res, _ := eval.Data(g, q)
		if len(res) == 0 {
			t.Errorf("query %s has no results", key)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	g := xmarkGraph(t, 0.02)
	a, err := Generate(g, DefaultConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(g, DefaultConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.Format() != b.Format() {
		t.Error("workload generation is not deterministic")
	}
	c, err := Generate(g, DefaultConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if a.Format() == c.Format() {
		t.Error("different seeds produced identical workloads")
	}
}

func TestGenerateInvalidConfig(t *testing.T) {
	g := graph.FigureOneMovies()
	for _, cfg := range []Config{
		{N: 0, MinLen: 2, MaxLen: 5},
		{N: 10, MinLen: 0, MaxLen: 5},
		{N: 10, MinLen: 5, MaxLen: 2},
	} {
		if _, err := Generate(g, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if _, err := Generate(graph.New(), DefaultConfig(1)); err == nil {
		t.Error("empty graph accepted")
	}
}

func TestGenerateSmallGraphSaturates(t *testing.T) {
	// Figure 1 supports fewer than 100 distinct paths; generation must stop
	// gracefully with what exists.
	g := graph.FigureOneMovies()
	w, err := Generate(g, DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() == 0 || w.Len() > 100 {
		t.Errorf("got %d queries", w.Len())
	}
}

func TestRequirementsMining(t *testing.T) {
	g := graph.FigureOneMovies()
	w := &Workload{labels: g.Labels()}
	mk := func(s string) eval.Query {
		q, err := eval.ParseQuery(g.Labels(), s)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	w.Queries = []eval.Query{
		mk("movie.title"),
		mk("director.movie.title"),
		mk("name"),
		mk("actor.name"),
	}
	reqs := w.Requirements()
	if got := reqs.Get(g.Labels().Lookup("title")); got != 2 {
		t.Errorf("req(title) = %d, want 2 (longest query ending at title)", got)
	}
	if got := reqs.Get(g.Labels().Lookup("name")); got != 1 {
		t.Errorf("req(name) = %d, want 1", got)
	}
	if got := reqs.Get(g.Labels().Lookup("movie")); got != 0 {
		t.Errorf("req(movie) = %d, want 0 (movie is never a result label)", got)
	}
	if w.MaxLength() != 2 {
		t.Errorf("MaxLength = %d, want 2", w.MaxLength())
	}
}

func TestFormatRoundTrip(t *testing.T) {
	g := xmarkGraph(t, 0.01)
	w, err := Generate(g, Config{N: 20, MinLen: 2, MaxLen: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(w.Format(), "\n"), "\n")
	if len(lines) != w.Len() {
		t.Fatalf("Format wrote %d lines for %d queries", len(lines), w.Len())
	}
	for i, line := range lines {
		if q, err := eval.ParseQuery(g.Labels(), line); err != nil || !slices.Equal(q, w.Queries[i]) {
			t.Errorf("line %d %q parses to %v (%v), want %v", i, line, q, err, w.Queries[i])
		}
	}
}

func TestRecorder(t *testing.T) {
	g := graph.FigureOneMovies()
	r := NewRecorder()
	q1, _ := eval.ParseQuery(g.Labels(), "movie.title")
	q2, _ := eval.ParseQuery(g.Labels(), "director.movie.title")
	r.Record(q1)
	r.Record(q1)
	r.Record(q2)
	r.Record(nil) // ignored
	if r.Len() != 2 || r.Total() != 3 {
		t.Fatalf("Len=%d Total=%d, want 2 and 3", r.Len(), r.Total())
	}
	load := r.Load()
	if len(load) != 2 {
		t.Fatalf("load has %d entries", len(load))
	}
	counts := map[string]int{}
	for _, wq := range load {
		counts[wq.Q.Format(g.Labels())] = wq.Count
	}
	if counts["movie.title"] != 2 || counts["director.movie.title"] != 1 {
		t.Errorf("load counts = %v, want movie.title x2, director.movie.title x1", counts)
	}
	// Load order is deterministic (label-id sequence) across calls.
	again := r.Load()
	for i := range load {
		if load[i].Q.Format(g.Labels()) != again[i].Q.Format(g.Labels()) {
			t.Errorf("Load order not deterministic: %d differs", i)
		}
	}
	r.Reset()
	if r.Len() != 0 {
		t.Error("Reset did not clear")
	}
}

func TestMineBudgetUnbounded(t *testing.T) {
	g := xmarkGraph(t, 0.02)
	w, err := Generate(g, Config{N: 30, MinLen: 2, MaxLen: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRecorder()
	for i, q := range w.Queries {
		for c := 0; c <= i%3; c++ { // skewed frequencies
			r.Record(q)
		}
	}
	res, err := MineBudget(g, r.Load(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) == 0 {
		t.Fatal("miner accepted no moves")
	}
	// The mined index must beat the label-split baseline on the load.
	if res.Cost <= 0 {
		t.Errorf("final cost %.1f", res.Cost)
	}
	baseline, err := MineBudget(g, r.Load(), 1) // budget 1 forces label split
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost >= baseline.Cost {
		t.Errorf("mined cost %.1f not below label-split cost %.1f", res.Cost, baseline.Cost)
	}
}

func TestMineBudgetRespectsBudget(t *testing.T) {
	g := xmarkGraph(t, 0.02)
	w, err := Generate(g, Config{N: 30, MinLen: 2, MaxLen: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRecorder()
	for _, q := range w.Queries {
		r.Record(q)
	}
	unbounded, err := MineBudget(g, r.Load(), 0)
	if err != nil {
		t.Fatal(err)
	}
	budget := unbounded.Size / 2
	limited, err := MineBudget(g, r.Load(), budget)
	if err != nil {
		t.Fatal(err)
	}
	if limited.Size > budget {
		t.Errorf("size %d exceeds budget %d", limited.Size, budget)
	}
	if limited.Cost < unbounded.Cost {
		t.Error("budget-limited tuning beat unbounded tuning")
	}
	if _, err := MineBudget(g, nil, 0); err == nil {
		t.Error("empty load accepted")
	}
}

// TestMinedKIsBounded: a recorded path far longer than core.MaxK — 200
// labels climbing a recursive chain — makes neither miner ask for more than
// the bound: the longest-query rule clamps its requirement, and MineBudget
// tries one candidate at the bound instead of one refinement round per label.
func TestMinedKIsBounded(t *testing.T) {
	g := graph.New()
	root := g.AddRoot()
	prev := root
	for i := 0; i < 3; i++ {
		a := g.AddNode("a")
		g.AddEdge(prev, a)
		prev = a
	}
	g.AddEdge(prev, g.AddNode("b"))
	g.AddEdge(root, g.AddNode("b"))
	q, err := eval.ParseQuery(g.Labels(), strings.Repeat("a.", 199)+"b")
	if err != nil {
		t.Fatal(err)
	}
	b := g.Labels().Lookup("b")

	w := &Workload{labels: g.Labels(), Queries: []eval.Query{q}}
	if got := w.Requirements().Get(b); got != core.MaxK {
		t.Errorf("longest-query rule: req(b) = %d, want %d", got, core.MaxK)
	}
	res, err := MineBudget(g, []WeightedQuery{{Q: q, Count: 1}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Reqs.Get(b); got != core.MaxK || len(res.Steps) != 1 {
		t.Errorf("MineBudget: req(b) = %d after %d steps, want %d after 1", got, len(res.Steps), core.MaxK)
	}
}

// xmarkGraph generates an XMark document at the given scale as a data graph.
func xmarkGraph(t *testing.T, scale float64) *graph.Graph {
	t.Helper()
	g, _, err := datagen.Graph(datagen.XMark(datagen.XMarkScale(scale)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}
