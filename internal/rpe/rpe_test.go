package rpe

import (
	"math/rand"
	"strings"
	"testing"

	"dkindex/internal/graph"
)

func evalOn(t *testing.T, g *graph.Graph, src string) []graph.NodeID {
	t.Helper()
	e, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return CompileExpr(e, g.Labels()).Eval(g, nil)
}

func ids(ns ...graph.NodeID) []graph.NodeID { return ns }

func same(a, b []graph.NodeID) bool {
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

// --- Parser ---

func TestParseRoundTrip(t *testing.T) {
	for _, src := range []string{
		"a", "_", "a.b", "a.b.c", "(a|b)", "a?", "a*", "(a.b)*", "(a|b).c",
	} {
		e, err := Parse(src)
		if err != nil {
			t.Errorf("parse %q: %v", src, err)
			continue
		}
		if _, err := Parse(e.String()); err != nil {
			t.Errorf("re-parse of %q -> %q failed: %v", src, e.String(), err)
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	// '|' binds loosest: a.b|c = (a.b)|c.
	e := MustParse("a.b|c")
	alt, ok := e.(Alt)
	if !ok {
		t.Fatalf("a.b|c parsed as %T, want Alt at top", e)
	}
	if _, ok := alt.L.(Seq); !ok {
		t.Errorf("left branch is %T, want Seq", alt.L)
	}
	// Postfix binds tightest: a.b* = a.(b*).
	e = MustParse("a.b*")
	seq := e.(Seq)
	if _, ok := seq.R.(Star); !ok {
		t.Errorf("a.b*: right is %T, want Star", seq.R)
	}
}

func TestParseDescendantSugar(t *testing.T) {
	a := MustParse("a//b").String()
	b := MustParse("a.(_)*.b").String()
	if a != b {
		t.Errorf("a//b = %q, a.(_)*.b = %q", a, b)
	}
	lead := MustParse("//a").String()
	want := MustParse("(_)*.a").String()
	if lead != want {
		t.Errorf("//a = %q, want %q", lead, want)
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"", "a.", ".a", "(a", "a)", "a||b", "a/b", "a$", "|a", "a b",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("parse %q: expected error", src)
		}
	}
}

// An expression is outside input and the compiled tables grow with its
// square, so Parse bounds it: the longest accepted expression still compiles
// to small tables, one token more is an error.
func TestParseBoundsExpressionSize(t *testing.T) {
	// A label, ('//', label) pairs, and one '?' make exactly maxExprTokens.
	longest := "a" + strings.Repeat("//a", (maxExprTokens-2)/2) + "?"
	e, err := Parse(longest)
	if err != nil {
		t.Fatalf("%d-token expression rejected: %v", maxExprTokens, err)
	}
	n := Compile(e, graph.New().Labels())
	if bytes := 8 * len(n.target); n.NumStates() > 3*maxExprTokens || bytes > 512<<10 {
		t.Errorf("%d tokens compile to %d states and %d table bytes", maxExprTokens, n.NumStates(), bytes)
	}
	if _, err := Parse(longest + "?"); err == nil || !strings.Contains(err.Error(), "tokens") {
		t.Errorf("%d-token expression: err = %v, want a size error", maxExprTokens+1, err)
	}
}

func TestLabelsCollection(t *testing.T) {
	got := Labels(MustParse("a.(b|c)*.a._"))
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("Labels = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Labels = %v, want %v", got, want)
		}
	}
}

func TestMaxWordLen(t *testing.T) {
	cases := map[string]int{
		"a":        1,
		"a.b.c":    3,
		"a|b.c":    2,
		"a.b?":     2,
		"a*":       -1,
		"a.b*.c":   -1,
		"a//b":     -1,
		"(a|b).c?": 2,
		"_._":      2,
	}
	for src, want := range cases {
		if got := MaxWordLen(MustParse(src)); got != want {
			t.Errorf("MaxWordLen(%q) = %d, want %d", src, got, want)
		}
	}
}

// --- Evaluation on the paper's Figure 1 ---

func TestEvalPaperExamples(t *testing.T) {
	g := graph.FigureOneMovies()
	if got := evalOn(t, g, "director.movie.title"); !same(got, ids(15, 16, 18)) {
		t.Errorf("director.movie.title = %v, want [15 16 18]", got)
	}
	// The paper's second example: movieDB.(_)?.movie.actor.name = {12, 22}.
	if got := evalOn(t, g, "movieDB.(_)?.movie.actor.name"); !same(got, ids(12, 22)) {
		t.Errorf("movieDB.(_)?.movie.actor.name = %v, want [12 22]", got)
	}
}

func TestEvalAlternation(t *testing.T) {
	g := graph.FigureOneMovies()
	got := evalOn(t, g, "(director|actor).name")
	// director names 6,8; actor names 20 (under 4), 12 (under 11), 22 (under 21).
	if !same(got, ids(6, 8, 12, 20, 22)) {
		t.Errorf("(director|actor).name = %v", got)
	}
}

func TestEvalDescendant(t *testing.T) {
	g := graph.FigureOneMovies()
	got := evalOn(t, g, "movieDB//title")
	// All titles are below movieDB.
	if !same(got, ids(13, 15, 16, 18)) {
		t.Errorf("movieDB//title = %v", got)
	}
	got = evalOn(t, g, "director//name")
	// Names under directors: 6, 8 directly; via movies 7,10 -> actor 21 -> 22.
	if !same(got, ids(6, 8, 22)) {
		t.Errorf("director//name = %v", got)
	}
}

func TestEvalWildcardAndOpt(t *testing.T) {
	g := graph.FigureOneMovies()
	if got := evalOn(t, g, "_.movie"); !same(got, ids(5, 7, 9, 10)) {
		t.Errorf("_.movie = %v", got)
	}
	// Optional head: (director)?.movie matches all movies (zero-width head).
	if got := evalOn(t, g, "director?.movie"); !same(got, ids(5, 7, 9, 10)) {
		t.Errorf("director?.movie = %v", got)
	}
}

func TestEvalUnknownLabel(t *testing.T) {
	g := graph.FigureOneMovies()
	if got := evalOn(t, g, "warehouse.title"); got != nil {
		t.Errorf("unknown label matched %v", got)
	}
	if g.Labels().Lookup("warehouse") != graph.InvalidLabel {
		t.Error("evaluation interned the unknown label")
	}
}

func TestEvalStarOnCycle(t *testing.T) {
	g := graph.TinyCycle() // ROOT -> a -> b -> a
	got := evalOn(t, g, "a.(b.a)*")
	if !same(got, ids(1)) {
		t.Errorf("a.(b.a)* = %v, want [1]", got)
	}
	got = evalOn(t, g, "ROOT.a.(b.a)*.b")
	if !same(got, ids(2)) {
		t.Errorf("ROOT.a.(b.a)*.b = %v, want [2]", got)
	}
}

func TestEvalEmptyWordExpressionMatchesNothing(t *testing.T) {
	g := graph.FigureOneMovies()
	if got := evalOn(t, g, "movie?"); len(got) != 4 {
		// movie? accepts the empty word and "movie"; only the non-empty
		// word produces matches.
		t.Errorf("movie? = %v, want the 4 movie nodes", got)
	}
	if got := evalOn(t, g, "zzz?"); got != nil {
		t.Errorf("zzz? (empty-word only in practice) = %v, want none", got)
	}
}

func TestEvalCountsVisits(t *testing.T) {
	g := graph.FigureOneMovies()
	c := CompileExpr(MustParse("movie.title"), g.Labels())
	visits := 0
	c.Eval(g, func(graph.NodeID) { visits++ })
	if visits == 0 {
		t.Error("no visits counted")
	}
}

// --- MatchesNode (validation primitive) ---

func TestMatchesNodeAgreesWithEval(t *testing.T) {
	g := graph.FigureOneMovies()
	for _, src := range []string{
		"director.movie.title",
		"movieDB.(_)?.movie.actor.name",
		"movieDB//name",
		"(director|actor).movie",
		"actor.movie.title",
	} {
		c := CompileExpr(MustParse(src), g.Labels())
		matched := make(map[graph.NodeID]bool)
		for _, n := range c.Eval(g, nil) {
			matched[n] = true
		}
		for n := 0; n < g.NumNodes(); n++ {
			if got := c.MatchesNode(g, graph.NodeID(n), nil); got != matched[graph.NodeID(n)] {
				t.Errorf("%s: MatchesNode(%d) = %v, Eval says %v", src, n, got, matched[graph.NodeID(n)])
			}
		}
	}
}

func TestMatchesNodeOnCycles(t *testing.T) {
	g := graph.TinyCycle()
	c := CompileExpr(MustParse("a.(b.a)*.b"), g.Labels())
	if !c.MatchesNode(g, 2, nil) {
		t.Error("a.(b.a)*.b should match node b")
	}
	if c.MatchesNode(g, 0, nil) {
		t.Error("a.(b.a)*.b should not match ROOT")
	}
}

func TestMatchesNodeRandomizedAgainstEval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		g := graph.New()
		r := g.AddRoot()
		ids := []graph.NodeID{r}
		for i := 1; i < 120; i++ {
			n := g.AddNode(string(rune('a' + rng.Intn(3))))
			g.AddEdge(ids[rng.Intn(len(ids))], n)
			ids = append(ids, n)
		}
		for i := 0; i < 40; i++ {
			u, v := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
			if u != v && v != r {
				g.AddEdge(u, v)
			}
		}
		exprs := []string{"a.b", "a//c", "(a|b).c", "a.(b|c)*.a", "_.b.c?"}
		for _, src := range exprs {
			c := CompileExpr(MustParse(src), g.Labels())
			matched := make(map[graph.NodeID]bool)
			for _, n := range c.Eval(g, nil) {
				matched[n] = true
			}
			for i := 0; i < 30; i++ {
				n := ids[rng.Intn(len(ids))]
				if got := c.MatchesNode(g, n, nil); got != matched[n] {
					t.Fatalf("trial %d %s: MatchesNode(%d)=%v, Eval=%v", trial, src, n, got, matched[n])
				}
			}
		}
	}
}

func TestNFAMatchesEmpty(t *testing.T) {
	g := graph.FigureOneMovies()
	if !Compile(MustParse("a?"), g.Labels()).MatchesEmpty() {
		t.Error("a? should accept the empty word")
	}
	if Compile(MustParse("a"), g.Labels()).MatchesEmpty() {
		t.Error("a should not accept the empty word")
	}
	if !Compile(MustParse("a*"), g.Labels()).MatchesEmpty() {
		t.Error("a* should accept the empty word")
	}
}

func TestParseUnderscoreLabels(t *testing.T) {
	// Labels containing underscores must not lex as wildcards.
	e := MustParse("open_auction.itemref//name")
	labels := Labels(e)
	if len(labels) != 3 || labels[0] != "open_auction" {
		t.Fatalf("Labels = %v", labels)
	}
	// A lone underscore remains the wildcard.
	if _, ok := MustParse("_").(Wildcard); !ok {
		t.Error("lone _ is not a wildcard")
	}
	// Wildcard followed by an operator still parses.
	if _, err := Parse("a._.b"); err != nil {
		t.Errorf("a._.b: %v", err)
	}
	// Underscore-leading label.
	e = MustParse("_foo.bar")
	if labels := Labels(e); len(labels) != 2 || labels[0] != "_foo" {
		t.Errorf("_foo.bar labels = %v", labels)
	}
}
