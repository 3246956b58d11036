package eval

import (
	"math/rand"
	"testing"

	"dkindex/internal/graph"
	"dkindex/internal/index"
)

func mustTwig(t *testing.T, g *graph.Graph, s string) *Twig {
	t.Helper()
	q, err := ParseTwig(g.Labels(), s)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestParseTwig(t *testing.T) {
	g := graph.FigureOneMovies()
	q := mustTwig(t, g, "director.movie[actor].title")
	if len(q.Steps) != 3 || q.Length() != 2 {
		t.Fatalf("steps=%d length=%d", len(q.Steps), q.Length())
	}
	if len(q.Steps[1].Preds) != 1 {
		t.Fatal("movie step lost its predicate")
	}
	if got := q.Format(g.Labels()); got != "director.movie[actor].title" {
		t.Errorf("Format = %q", got)
	}
	nested := mustTwig(t, g, "movieDB[director[movie.title]].actor")
	if got := nested.Format(g.Labels()); got != "movieDB[director[movie.title]].actor" {
		t.Errorf("nested Format = %q", got)
	}
}

func TestParseTwigErrors(t *testing.T) {
	g := graph.FigureOneMovies()
	for _, s := range []string{"", "a.", "a[b", "a]b", "a[]", "a..b", "[a]"} {
		if _, err := ParseTwig(g.Labels(), s); err == nil {
			t.Errorf("twig %q accepted", s)
		}
	}
}

func TestDataTwigOnFigureOne(t *testing.T) {
	g := graph.FigureOneMovies()
	// Titles of movies that have an actor child: only movie 10 (child
	// actor 21) and movie 5 (child actor 11) have actor children.
	res, _ := DataTwig(g, mustTwig(t, g, "movie[actor].title"))
	want := []graph.NodeID{13, 18}
	if !SameResult(res, want) {
		t.Errorf("movie[actor].title = %v, want %v", res, want)
	}
	// Directors who directed a movie that has a year: all directors.
	res, _ = DataTwig(g, mustTwig(t, g, "director[movie.year]"))
	if !SameResult(res, []graph.NodeID{2, 3}) {
		t.Errorf("director[movie.year] = %v", res)
	}
	// Nested predicate: movies with an actor child that has a name.
	res, _ = DataTwig(g, mustTwig(t, g, "movie[actor[name]]"))
	if !SameResult(res, []graph.NodeID{5, 10}) {
		t.Errorf("movie[actor[name]] = %v", res)
	}
	// Trunk with predicate on the result step.
	res, _ = DataTwig(g, mustTwig(t, g, "director.movie[year].title"))
	if !SameResult(res, []graph.NodeID{15, 16, 18}) {
		t.Errorf("director.movie[year].title = %v", res)
	}
}

func TestIndexTwigFBIsSoundWithoutValidation(t *testing.T) {
	g := graph.FigureOneMovies()
	fb := index.BuildFB(g)
	for _, s := range []string{
		"movie[actor].title",
		"director[movie.year]",
		"movie[actor[name]]",
		"director.movie[year].title",
	} {
		q := mustTwig(t, g, s)
		truth, _ := DataTwig(g, q)
		res, cost := IndexTwig(fb, q)
		if !SameResult(res, truth) {
			t.Errorf("%s on F&B: %v != %v", s, res, truth)
		}
		if cost.Validations != 0 {
			t.Errorf("%s validated on the F&B index", s)
		}
	}
}

func TestIndexTwigBackwardIndexesValidate(t *testing.T) {
	g := graph.FigureOneMovies()
	one := index.Build1Index(g)
	q := mustTwig(t, g, "movie[actor].title")
	truth, _ := DataTwig(g, q)
	res, cost := IndexTwig(one, q)
	if !SameResult(res, truth) {
		t.Errorf("1-index twig: %v != %v", res, truth)
	}
	// The 1-index is backward-only: it cannot certify child existence and
	// must validate.
	if cost.Validations == 0 {
		t.Error("1-index answered a branching query without validation")
	}
}

func TestFBIndexFinerThan1Index(t *testing.T) {
	g := graph.FigureOneMovies()
	one := index.Build1Index(g)
	fb := index.BuildFB(g)
	if err := fb.Validate(); err != nil {
		t.Fatal(err)
	}
	if fb.NumNodes() < one.NumNodes() {
		t.Errorf("F&B (%d) coarser than 1-index (%d)", fb.NumNodes(), one.NumNodes())
	}
	if !fb.FBStable() {
		t.Error("BuildFB did not mark stability")
	}
	// Data mutation clears the certificate.
	fb.AddDataEdge(4, 9)
	if fb.FBStable() {
		t.Error("FBStable survived a data mutation")
	}
}

func randomTwig(rng *rand.Rand, g *graph.Graph, depth int) *Twig {
	n := graph.NodeID(rng.Intn(g.NumNodes()))
	q := &Twig{Steps: []TwigStep{{Label: g.Label(n)}}}
	for len(q.Steps) < 3 {
		ch := g.Children(n)
		if len(ch) == 0 {
			break
		}
		n = ch[rng.Intn(len(ch))]
		q.Steps = append(q.Steps, TwigStep{Label: g.Label(n)})
	}
	// Attach a predicate drawn from a real child chain so some results
	// survive, at a random trunk position.
	if depth > 0 {
		pos := rng.Intn(len(q.Steps))
		// Re-walk to find a node matching the trunk prefix is overkill;
		// just use any node with that label.
		byLabel := g.NodesByLabel()
		cands := byLabel[q.Steps[pos].Label]
		base := cands[rng.Intn(len(cands))]
		if ch := g.Children(base); len(ch) > 0 {
			c := ch[rng.Intn(len(ch))]
			pred := &Twig{Steps: []TwigStep{{Label: g.Label(c)}}}
			q.Steps[pos].Preds = append(q.Steps[pos].Preds, pred)
		}
	}
	assignIDs(q, 0)
	return q
}

func TestIndexTwigRandomizedAgainstTruth(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randomGraph(seed+600, 200, 4, 60)
		rng := rand.New(rand.NewSource(seed))
		igs := []*index.IndexGraph{
			index.BuildLabelSplit(g),
			index.BuildAK(g, 2),
			index.Build1Index(g),
			index.BuildFB(g),
		}
		for qi := 0; qi < 20; qi++ {
			q := randomTwig(rng, g, 1)
			truth, _ := DataTwig(g, q)
			for ii, ig := range igs {
				res, _ := IndexTwig(ig, q)
				if !SameResult(res, truth) {
					t.Fatalf("seed %d index %d twig %s: %v != %v",
						seed, ii, q.Format(g.Labels()), res, truth)
				}
			}
		}
	}
}

func TestTwigOnCycle(t *testing.T) {
	g := graph.TinyCycle()
	q := mustTwig(t, g, "a[b[a]]")
	res, _ := DataTwig(g, q)
	if !SameResult(res, []graph.NodeID{1}) {
		t.Errorf("a[b[a]] on cycle = %v, want [1]", res)
	}
	fb := index.BuildFB(g)
	got, _ := IndexTwig(fb, q)
	if !SameResult(got, res) {
		t.Errorf("F&B twig on cycle: %v != %v", got, res)
	}
}

// FuzzParseTwig checks the twig parser never panics and round-trips its
// accepted inputs.
func FuzzParseTwig(f *testing.F) {
	for _, seed := range []string{
		"a", "a.b", "a[b]", "a[b.c].d", "a[b][c]", "a[b[c]]",
		"a[", "a]", "a[]", "[a]", "a..b", "a.b[", "",
	} {
		f.Add(seed)
	}
	g := graph.FigureOneMovies()
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 256 {
			return
		}
		q, err := ParseTwig(g.Labels(), src)
		if err != nil {
			return
		}
		rendered := q.Format(g.Labels())
		q2, err := ParseTwig(g.Labels(), rendered)
		if err != nil {
			t.Fatalf("accepted %q but rendered %q fails: %v", src, rendered, err)
		}
		if q2.Format(g.Labels()) != rendered {
			t.Fatalf("render not idempotent: %q -> %q", rendered, q2.Format(g.Labels()))
		}
		// Evaluation and per-node validation agree.
		res, _ := DataTwig(g, q)
		matched := make(map[graph.NodeID]bool, len(res))
		for _, n := range res {
			matched[n] = true
		}
		e := newTwigEval(g, q)
		defer e.release()
		for _, n := range []graph.NodeID{0, 5, 10, 18} {
			if got := e.matchesEndingAt(n); got != matched[n] {
				t.Fatalf("%q: matchesEndingAt(%d)=%v, eval=%v", src, n, got, matched[n])
			}
		}
	})
}
