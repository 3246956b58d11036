package eval_test

import (
	"math/rand"
	"testing"

	"dkindex/internal/eval"
	"dkindex/internal/graph"
	"dkindex/internal/index"
	"dkindex/internal/oracle"
	"dkindex/internal/rpe"
)

// TestDataCases runs simple paths straight over the data graph: answers,
// the empty answer as nil, and the visit charges of the cost model, which
// must equal the map-based oracle's.
func TestDataCases(t *testing.T) {
	g := graph.FigureOneMovies()
	for _, tc := range []struct {
		name   string
		q      eval.Query
		want   []graph.NodeID
		visits int // -1: only compared with the oracle
	}{
		{"paper_example", eval.MustQuery(t, g, "director.movie.title"), []graph.NodeID{15, 16, 18}, -1},
		{"no_match", eval.MustQuery(t, g, "title.movie"), nil, -1},
		{"empty_path", nil, nil, 0},
		// 4 movie seeds + 4 title matches.
		{"counts_visits", eval.MustQuery(t, g, "movie.title"), []graph.NodeID{13, 15, 16, 18}, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, c := eval.Data(g, tc.q)
			if !eval.SameResult(got, tc.want) || (tc.want == nil && got != nil) {
				t.Errorf("%s = %v, want %v", tc.q.Format(g.Labels()), got, tc.want)
			}
			if tc.visits >= 0 && c.IndexNodesVisited != tc.visits {
				t.Errorf("%s: visits = %d, want %d", tc.q.Format(g.Labels()), c.IndexNodesVisited, tc.visits)
			}
			if _, wc := oracle.Data(g, tc.q); c != wc {
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
			var q eval.Query
			if tc.path != "" {
				q = eval.MustQuery(t, tc.g, tc.path)
			}
			ok, charged := eval.MatchesNode(tc.g, q, tc.n)
			if ok != tc.want {
				t.Errorf("%q at node %d = %v, want %v", tc.path, tc.n, ok, tc.want)
			}
			wantOK, wantCharged := oracle.MatchesNode(tc.g, q, tc.n)
			if ok != wantOK || charged != wantCharged {
				t.Errorf("%q at node %d = %v charging %d, reference %v charging %d", tc.path, tc.n, ok, charged, wantOK, wantCharged)
			}
		})
	}
}

func TestLabelSplitNeedsValidation(t *testing.T) {
	g := graph.FigureOneMovies()
	q := eval.MustQuery(t, g, "director.movie.title")
	ls := index.BuildLabelSplit(g)
	res, cost := eval.Index(ls, q)
	truth, _ := eval.Data(g, q)
	if !eval.SameResult(res, truth) {
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
	raw, _ := oracle.IndexNoValidation(ls, q)
	if eval.SameResult(raw, truth) {
		t.Error("label-split without validation should over-answer this query")
	}
	if len(raw) <= len(truth) {
		t.Errorf("unvalidated result (%d) not larger than truth (%d)", len(raw), len(truth))
	}
}

// The central safety/soundness property: for every index, every query,
// validated index evaluation equals direct evaluation; and unvalidated
// evaluation is a superset (safety).
func TestIndexEvaluationMatchesTruthProperty(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := eval.RandomGraph(seed, 250, 4, 70)
		rng := rand.New(rand.NewSource(seed * 31))
		indexes := []*index.IndexGraph{
			index.BuildLabelSplit(g),
			index.BuildAK(g, 1),
			index.BuildAK(g, 2),
			index.BuildAK(g, 3),
			index.Build1Index(g),
		}
		for qi := 0; qi < 25; qi++ {
			q := eval.RandomQuery(rng, g, 2+rng.Intn(4))
			truth, _ := eval.Data(g, q)
			for ii, ig := range indexes {
				res, _ := eval.Index(ig, q)
				if !eval.SameResult(res, truth) {
					t.Fatalf("seed %d index %d query %s: %v != truth %v",
						seed, ii, q.Format(g.Labels()), res, truth)
				}
				raw, _ := oracle.IndexNoValidation(ig, q)
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
		g := eval.RandomGraph(seed+100, 220, 4, 50)
		rng := rand.New(rand.NewSource(seed))
		for _, k := range []int{1, 2, 3, 4} {
			ig := index.BuildAK(g, k)
			for qi := 0; qi < 15; qi++ {
				q := eval.RandomQuery(rng, g, k+1) // length <= k
				truth, _ := eval.Data(g, q)
				raw, _ := oracle.IndexNoValidation(ig, q)
				if !eval.SameResult(raw, truth) {
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

// FuzzTwigAgainstReference checks the trunk walker's dense memo tables
// against the oracle package's map-based evaluator on cyclic graphs: direct
// evaluation, and index evaluation over summaries that cannot certify child
// structure — so every match is validated member by member through
// matchesEndingAt — must return the oracle's results and its exact Cost. A
// predicate-free twig is also a simple path, and is run again through Data
// and Index, whose k rule validates differently.
func FuzzTwigAgainstReference(f *testing.F) {
	for i, seed := range []string{
		"a", "a.b", "a[b]", "a[b].c", "a[b][c].d", "a[b.c].d", "a[b[c]].a", "a[a[a[a]]].a",
		"b.a[c].a[d]", "a[zz]", "zz[a].b", "a.b.c.d[a]", "ROOT.a[b]",
		"b", "a.b.a.b",
	} {
		f.Add(seed, int64(i))
	}
	f.Fuzz(func(t *testing.T, src string, seed int64) {
		if len(src) > 128 {
			return // keep queries small
		}
		g := eval.RandomGraph(seed, 120, 4, 60)
		q, err := eval.ParseTwig(g.Labels(), src)
		if err != nil {
			return
		}
		res, c := eval.DataTwig(g, q)
		want, wc := oracle.DataTwig(g, q)
		if !eval.SameResult(res, want) || c != wc {
			t.Fatalf("%q on data: %v/%+v, reference %v/%+v", src, res, c, want, wc)
		}
		var path eval.Query
		for _, s := range q.Steps {
			if len(s.Preds) > 0 {
				path = nil
				break
			}
			path = append(path, s.Label)
		}
		if path != nil {
			res, c := eval.Data(g, path)
			want, wc := oracle.Data(g, path)
			if !eval.SameResult(res, want) || c != wc {
				t.Fatalf("path %q on data: %v/%+v, reference %v/%+v", src, res, c, want, wc)
			}
		}
		for name, ig := range map[string]*index.IndexGraph{
			"label-split": index.BuildLabelSplit(g),
			"A(1)":        index.BuildAK(g, 1),
			"F&B":         index.BuildFB(g),
		} {
			res, c := eval.IndexTwig(ig, q)
			want, wc := oracle.IndexTwig(ig, q)
			if !eval.SameResult(res, want) || c != wc {
				t.Fatalf("%q on %s: %v/%+v, reference %v/%+v", src, name, res, c, want, wc)
			}
			if path == nil {
				continue
			}
			res, c = eval.Index(ig, path)
			want, wc = oracle.Index(ig, path)
			if !eval.SameResult(res, want) || c != wc {
				t.Fatalf("path %q on %s: %v/%+v, reference %v/%+v", src, name, res, c, want, wc)
			}
		}
	})
}

// On the coarsest extents, where every unsound match validates a long member
// list, results and every cost counter must equal the reference's.
func TestIndexMatchesReferenceOnCoarseExtents(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := eval.RandomGraph(seed, 300, 4, 80)
		rng := rand.New(rand.NewSource(seed * 17))
		// Label split has the coarsest extents.
		indexes := []*index.IndexGraph{
			index.BuildLabelSplit(g),
			index.BuildAK(g, 1),
		}
		for qi := 0; qi < 20; qi++ {
			q := eval.RandomQuery(rng, g, 2+rng.Intn(4))
			for ii, ig := range indexes {
				res, c := eval.Index(ig, q)
				wantRes, wantC := oracle.Index(ig, q)
				if !eval.SameResult(res, wantRes) || c != wantC {
					t.Fatalf("seed %d index %d query %s: %v/%+v, reference %v/%+v",
						seed, ii, q.Format(g.Labels()), res, c, wantRes, wantC)
				}
			}
		}
	}
}

func TestIndexRPEMatchesReferenceOnCoarseExtents(t *testing.T) {
	g := eval.RandomGraph(3, 300, 4, 80)
	ig := index.BuildLabelSplit(g)
	for _, src := range []string{"a.b", "a._*", "(a|b).c?", "b._.d"} {
		e, err := rpe.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		c := rpe.CompileExpr(e, g.Labels())
		res, cost := eval.IndexRPE(ig, c)
		wantRes, wantCost := oracle.IndexRPE(ig, oracle.CompileRPE(e, g.Labels()))
		if !eval.SameResult(res, wantRes) || cost != wantCost {
			t.Fatalf("%s: %v/%+v, reference %v/%+v", src, res, cost, wantRes, wantCost)
		}
	}
}
