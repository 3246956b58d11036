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

// TestDataCases runs simple paths straight over the data graph: answers,
// the empty answer as nil, and the visit charges of the cost model, which
// must equal the map-based oracle's.
func TestDataCases(t *testing.T) {
	g := graph.FigureOneMovies()
	for _, tc := range []struct {
		name   string
		q      Query
		want   []graph.NodeID
		visits int // -1: only compared with the oracle
	}{
		{"paper_example", mustQuery(t, g, "director.movie.title"), []graph.NodeID{15, 16, 18}, -1},
		{"no_match", mustQuery(t, g, "title.movie"), nil, -1},
		{"empty_path", nil, nil, 0},
		// 4 movie seeds + 4 title matches.
		{"counts_visits", mustQuery(t, g, "movie.title"), []graph.NodeID{13, 15, 16, 18}, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, c := Data(g, tc.q)
			if !SameResult(got, tc.want) || (tc.want == nil && got != nil) {
				t.Errorf("%s = %v, want %v", tc.q.Format(g.Labels()), got, tc.want)
			}
			if tc.visits >= 0 && c.IndexNodesVisited != tc.visits {
				t.Errorf("%s: visits = %d, want %d", tc.q.Format(g.Labels()), c.IndexNodesVisited, tc.visits)
			}
			if _, wc := ReferenceData(g, tc.q); c != wc {
				t.Errorf("%s: cost %+v, reference %+v", tc.q.Format(g.Labels()), c, wc)
			}
		})
	}
}

// TestMatchesNodeCases checks the per-member validation primitive, on the
// paper's example and around a cycle.
func TestMatchesNodeCases(t *testing.T) {
	movies, cycle := graph.FigureOneMovies(), graph.TinyCycle()
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		path string // "" is the empty path
		n    graph.NodeID
		want bool
	}{
		{"paper_example", movies, "director.movie.title", 15, true},
		// Movie 5 has no director parent.
		{"paper_example_miss", movies, "director.movie.title", 13, false},
		{"empty_path", movies, "", 13, true},
		// Node path a->b->a->b exists via the cycle.
		{"cycle", cycle, "a.b.a.b", 2, true},
		// But ROOT appears only at the start.
		{"cycle_root_inside", cycle, "b." + graph.RootLabel + ".a", 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var q Query
			if tc.path != "" {
				q = mustQuery(t, tc.g, tc.path)
			}
			ok, charged := MatchesNode(tc.g, q, tc.n)
			if ok != tc.want {
				t.Errorf("%q at node %d = %v, want %v", tc.path, tc.n, ok, tc.want)
			}
			wantOK, wantCharged := referenceMatchesNode(tc.g, q, tc.n)
			if ok != wantOK || charged != wantCharged {
				t.Errorf("%q at node %d = %v charging %d, reference %v charging %d", tc.path, tc.n, ok, charged, wantOK, wantCharged)
			}
		})
	}
}

func referenceMatchesNode(g *graph.Graph, q Query, n graph.NodeID) (bool, int) {
	charged := 0
	ok := referenceLabelPathMatchesNode(g, q, n, func(graph.NodeID) { charged++ })
	return ok, charged
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

func TestLabelSplitNeedsValidation(t *testing.T) {
	g := graph.FigureOneMovies()
	q := mustQuery(t, g, "director.movie.title")
	ls := index.BuildLabelSplit(g)
	res, cost := Index(ls, q)
	truth, _ := Data(g, q)
	if !SameResult(res, truth) {
		t.Errorf("label-split validated result %v != truth %v", res, truth)
	}
	if cost.Validations == 0 {
		t.Error("label-split should validate a length-2 query")
	}
	if cost.DataNodesValidated == 0 {
		t.Error("validation should charge data node visits")
	}
	// Without validation the label-split index over-answers: title 13
	// (movie 5 has no director parent) is a false positive.
	raw, _ := IndexNoValidation(ls, q)
	if SameResult(raw, truth) {
		t.Error("label-split without validation should over-answer this query")
	}
	if len(raw) <= len(truth) {
		t.Errorf("unvalidated result (%d) not larger than truth (%d)", len(raw), len(truth))
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

// The central safety/soundness property: for every index, every query,
// validated index evaluation equals direct evaluation; and unvalidated
// evaluation is a superset (safety).
func TestIndexEvaluationMatchesTruthProperty(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := randomGraph(seed, 250, 4, 70)
		rng := rand.New(rand.NewSource(seed * 31))
		indexes := []*index.IndexGraph{
			index.BuildLabelSplit(g),
			index.BuildAK(g, 1),
			index.BuildAK(g, 2),
			index.BuildAK(g, 3),
			index.Build1Index(g),
		}
		for qi := 0; qi < 25; qi++ {
			q := randomQuery(rng, g, 2+rng.Intn(4))
			truth, _ := Data(g, q)
			for ii, ig := range indexes {
				res, _ := Index(ig, q)
				if !SameResult(res, truth) {
					t.Fatalf("seed %d index %d query %s: %v != truth %v",
						seed, ii, q.Format(g.Labels()), res, truth)
				}
				raw, _ := IndexNoValidation(ig, q)
				if !isSuperset(raw, truth) {
					t.Fatalf("seed %d index %d query %s: safety violated",
						seed, ii, q.Format(g.Labels()))
				}
			}
		}
	}
}

// Soundness property: when every matched node's similarity covers the query
// length, unvalidated evaluation already equals the truth.
func TestAKSoundnessWithinBudgetProperty(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := randomGraph(seed+100, 220, 4, 50)
		rng := rand.New(rand.NewSource(seed))
		for _, k := range []int{1, 2, 3, 4} {
			ig := index.BuildAK(g, k)
			for qi := 0; qi < 15; qi++ {
				q := randomQuery(rng, g, k+1) // length <= k
				truth, _ := Data(g, q)
				raw, _ := IndexNoValidation(ig, q)
				if !SameResult(raw, truth) {
					t.Fatalf("seed %d A(%d) query %s (len %d): unsound without validation",
						seed, k, q.Format(g.Labels()), q.Length())
				}
			}
		}
	}
}

func isSuperset(sup, sub []graph.NodeID) bool {
	set := make(map[graph.NodeID]bool, len(sup))
	for _, n := range sup {
		set[n] = true
	}
	for _, n := range sub {
		if !set[n] {
			return false
		}
	}
	return true
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
