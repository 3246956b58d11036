package eval

import (
	"math/rand"
	"strings"
	"testing"

	"dkindex/internal/graph"
	"dkindex/internal/index"
)

func mustQuery(t *testing.T, g *graph.Graph, s string) Query {
	t.Helper()
	q, err := ParseQuery(g.Labels(), s)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestParseQuery(t *testing.T) {
	g := graph.FigureOneMovies()
	q := mustQuery(t, g, "director.movie.title")
	if len(q) != 3 || q.Length() != 2 {
		t.Errorf("len=%d Length=%d, want 3 and 2", len(q), q.Length())
	}
	if got := q.Format(g.Labels()); got != "director.movie.title" {
		t.Errorf("Format = %q", got)
	}
	if _, err := ParseQuery(g.Labels(), ""); err == nil {
		t.Error("empty query parsed")
	}
	if _, err := ParseQuery(g.Labels(), "a..b"); err == nil {
		t.Error("query with empty label parsed")
	}
}

// TestParseQueryBoundsLength: a path of maxQueryLabels labels parses, one
// label more is rejected before anything is looked up. A twig is bounded the
// same way in steps, counted across the trunk and every predicate, so a
// deeply nested one is rejected before the parser recurses.
func TestParseQueryBoundsLength(t *testing.T) {
	g := graph.FigureOneMovies()
	longest := "movie" + strings.Repeat(".movie", maxQueryLabels-1)
	if q, err := ParseQuery(g.Labels(), longest); err != nil || len(q) != maxQueryLabels {
		t.Fatalf("%d-label query: %d labels, err %v", maxQueryLabels, len(q), err)
	}
	if _, err := ParseQuery(g.Labels(), longest+".movie"); err == nil || !strings.Contains(err.Error(), "at most 1024") {
		t.Errorf("%d-label query: err = %v, want a length error", maxQueryLabels+1, err)
	}
	var steps func(q *Twig) int
	steps = func(q *Twig) int {
		n := 0
		for _, s := range q.Steps {
			n++
			for _, p := range s.Preds {
				n += steps(p)
			}
		}
		return n
	}
	for shape, twig := range map[string]func(n int) string{
		"flat":   func(n int) string { return "movie" + strings.Repeat(".movie", n-1) },
		"nested": func(n int) string { return strings.Repeat("movie[", n-1) + "movie" + strings.Repeat("]", n-1) },
	} {
		if q, err := ParseTwig(g.Labels(), twig(maxQueryLabels)); err != nil || steps(q) != maxQueryLabels {
			t.Fatalf("%d-step %s twig: err %v", maxQueryLabels, shape, err)
		}
		if _, err := ParseTwig(g.Labels(), twig(maxQueryLabels+1)); err == nil || !strings.Contains(err.Error(), "at most 1024") {
			t.Errorf("%d-step %s twig: err = %v, want a length error", maxQueryLabels+1, shape, err)
		}
	}
}

func TestDataMatchesPaperExample(t *testing.T) {
	g := graph.FigureOneMovies()
	res, cost := Data(g, mustQuery(t, g, "director.movie.title"))
	want := []graph.NodeID{15, 16, 18}
	if !SameResult(res, want) {
		t.Errorf("result = %v, want %v", res, want)
	}
	if cost.Total() == 0 {
		t.Error("direct evaluation reported zero cost")
	}
}

func TestIndexSoundWithoutValidation(t *testing.T) {
	g := graph.FigureOneMovies()
	q := mustQuery(t, g, "director.movie.title")
	one := index.Build1Index(g)
	res, cost := Index(one, q)
	truth, _ := Data(g, q)
	if !SameResult(res, truth) {
		t.Errorf("1-index result %v != truth %v", res, truth)
	}
	if cost.Validations != 0 {
		t.Errorf("1-index triggered %d validations, want 0", cost.Validations)
	}
	if cost.DataNodesValidated != 0 {
		t.Error("1-index charged validation visits")
	}
}

func TestAKSoundWithinK(t *testing.T) {
	g := graph.FigureOneMovies()
	q := mustQuery(t, g, "director.movie.title") // length 2
	a2 := index.BuildAK(g, 2)
	res, cost := Index(a2, q)
	truth, _ := Data(g, q)
	if !SameResult(res, truth) {
		t.Errorf("A(2) result %v != truth %v", res, truth)
	}
	if cost.Validations != 0 {
		t.Errorf("A(2) validated a length-2 query %d times", cost.Validations)
	}
}

func TestEmptyAndMissResults(t *testing.T) {
	g := graph.FigureOneMovies()
	ig := index.BuildAK(g, 1)
	// Label exists but the path does not.
	q := mustQuery(t, g, "title.movie")
	res, _ := Index(ig, q)
	if len(res) != 0 {
		t.Errorf("title.movie = %v, want empty", res)
	}
	// Unknown label.
	q2 := mustQuery(t, g, "nosuchlabel")
	res2, _ := Index(ig, q2)
	if len(res2) != 0 {
		t.Errorf("unknown label query = %v, want empty", res2)
	}
	if r, c := Index(ig, nil); r != nil || c.Total() != 0 {
		t.Error("nil query should be empty and free")
	}
}

func TestSingleLabelQuery(t *testing.T) {
	g := graph.FigureOneMovies()
	ig := index.BuildLabelSplit(g)
	q := mustQuery(t, g, "movie")
	res, cost := Index(ig, q)
	truth, _ := Data(g, q)
	if !SameResult(res, truth) {
		t.Errorf("movie = %v, want %v", res, truth)
	}
	// Length-0 queries are always sound, even at k=0.
	if cost.Validations != 0 {
		t.Error("single-label query should never validate")
	}
}

func randomGraph(seed int64, nodes, labels, extraEdges int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New()
	r := g.AddRoot()
	ids := []graph.NodeID{r}
	for i := 1; i < nodes; i++ {
		n := g.AddNode(string(rune('a' + rng.Intn(labels))))
		g.AddEdge(ids[rng.Intn(len(ids))], n)
		ids = append(ids, n)
	}
	for i := 0; i < extraEdges; i++ {
		from := ids[rng.Intn(len(ids))]
		to := ids[rng.Intn(len(ids))]
		if from != to && to != r {
			g.AddEdge(from, to)
		}
	}
	return g
}

func randomQuery(rng *rand.Rand, g *graph.Graph, maxLen int) Query {
	// Random walk to guarantee the label path exists somewhere.
	n := graph.NodeID(rng.Intn(g.NumNodes()))
	q := Query{g.Label(n)}
	for len(q) < maxLen {
		ch := g.Children(n)
		if len(ch) == 0 {
			break
		}
		n = ch[rng.Intn(len(ch))]
		q = append(q, g.Label(n))
	}
	return q
}

func TestCostAdd(t *testing.T) {
	a := Cost{1, 2, 3}
	a.Add(Cost{10, 20, 30})
	if a != (Cost{11, 22, 33}) {
		t.Errorf("Add = %+v", a)
	}
	if a.Total() != 33 {
		t.Errorf("Total = %d, want 33", a.Total())
	}
}

func TestSameResult(t *testing.T) {
	if !SameResult(nil, nil) || !SameResult([]graph.NodeID{1, 2}, []graph.NodeID{1, 2}) {
		t.Error("equal slices reported unequal")
	}
	if SameResult([]graph.NodeID{1}, []graph.NodeID{2}) || SameResult([]graph.NodeID{1}, nil) {
		t.Error("unequal slices reported equal")
	}
}

// The cost model must be canonical: evaluating the same query on graphs
// built with different edge-insertion orders yields identical costs.
func TestCostModelCanonicalUnderInsertionOrder(t *testing.T) {
	build := func(reverse bool) *graph.Graph {
		g := graph.New()
		r := g.AddRoot()
		var as, bs []graph.NodeID
		for i := 0; i < 10; i++ {
			as = append(as, g.AddNode("a"))
			bs = append(bs, g.AddNode("b"))
		}
		type e struct{ u, v graph.NodeID }
		var edges []e
		for i := 0; i < 10; i++ {
			edges = append(edges, e{r, as[i]}, e{as[i], bs[i]}, e{as[i], bs[(i+3)%10]})
		}
		if reverse {
			for l, rr := 0, len(edges)-1; l < rr; l, rr = l+1, rr-1 {
				edges[l], edges[rr] = edges[rr], edges[l]
			}
		}
		for _, ed := range edges {
			g.AddEdge(ed.u, ed.v)
		}
		return g
	}
	g1, g2 := build(false), build(true)
	ig1, ig2 := index.BuildLabelSplit(g1), index.BuildLabelSplit(g2)
	q := mustQuery(t, g1, "ROOT.a.b")
	r1, c1 := Index(ig1, q)
	r2, c2 := Index(ig2, q)
	if !SameResult(r1, r2) {
		t.Fatal("results differ under insertion order")
	}
	if c1 != c2 {
		t.Fatalf("costs differ under insertion order: %+v vs %+v", c1, c2)
	}
}

// Query parsing must not intern: hostile query streams cannot grow the
// shared label table.
func TestParseQueryDoesNotIntern(t *testing.T) {
	g := graph.FigureOneMovies()
	before := g.Labels().Len()
	for i := 0; i < 50; i++ {
		if _, err := ParseQuery(g.Labels(), "neverseen"+string(rune('a'+i%26))+".movie"); err != nil {
			t.Fatal(err)
		}
		if _, err := ParseTwig(g.Labels(), "bogus"+string(rune('a'+i%26))+"[movie]"); err != nil {
			t.Fatal(err)
		}
	}
	if g.Labels().Len() != before {
		t.Errorf("label table grew from %d to %d through query parsing", before, g.Labels().Len())
	}
	// Unknown labels render defensively and stay re-parseable.
	q, err := ParseQuery(g.Labels(), "neverseenx.movie")
	if err != nil {
		t.Fatal(err)
	}
	formatted := q.Format(g.Labels())
	if !strings.Contains(formatted, "__unknown__") {
		t.Errorf("Format = %q", formatted)
	}
	if _, err := ParseQuery(g.Labels(), formatted); err != nil {
		t.Errorf("formatted query does not re-parse: %v", err)
	}
}
