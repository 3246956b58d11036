package rpe

import (
	"testing"

	"dkindex/internal/graph"
)

// FuzzParse checks that the expression parser never panics, that accepted
// expressions render back to re-parseable source, and that compiled
// automata evaluate without crashing on a fixed small graph.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"a", "_", "a.b.c", "(a|b)*", "a//b", "//a", "a?.b*",
		"movieDB.(_)?.movie.actor.name",
		"((((a))))", "a|b|c|d", "a..b", "(", ")", "*", "a**", "a??",
		"a b", "a/b", "ROOT//title",
	} {
		f.Add(seed)
	}
	g := graph.FigureOneMovies()
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 256 {
			return // keep automata small
		}
		e, err := Parse(src)
		if err != nil {
			return
		}
		rendered := e.String()
		e2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("accepted %q but rendered form %q fails: %v", src, rendered, err)
		}
		if e2.String() != rendered {
			t.Fatalf("render not idempotent: %q -> %q", rendered, e2.String())
		}
		c := CompileExpr(e, g.Labels())
		res := c.Eval(g, nil)
		// Spot-check agreement with the per-node matcher on a few nodes.
		matched := make(map[graph.NodeID]bool, len(res))
		for _, n := range res {
			matched[n] = true
		}
		for _, n := range []graph.NodeID{0, 7, 15, 22} {
			if got := c.MatchesNode(g, n, nil); got != matched[n] {
				t.Fatalf("%q: MatchesNode(%d)=%v, Eval=%v", src, n, got, matched[n])
			}
		}
	})
}
