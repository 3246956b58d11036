package rpe

import (
	"math/rand"
	"slices"
	"strings"
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

// cyclicGraph is a seeded 60-node graph over labels a..d with back edges and
// self-loops, so starred expressions meet cycles and a node steps into
// itself.
func cyclicGraph(seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New()
	ids := []graph.NodeID{g.AddRoot()}
	for i := 1; i < 60; i++ {
		n := g.AddNode(string(rune('a' + rng.Intn(4))))
		g.AddEdge(ids[rng.Intn(len(ids))], n)
		ids = append(ids, n)
	}
	for i := 0; i < 30; i++ {
		if to := ids[rng.Intn(len(ids))]; to != ids[0] {
			g.AddEdge(ids[rng.Intn(len(ids))], to)
		}
	}
	return g
}

// wideExpr compiles to 108 states in either direction, so its state sets take
// two words.
var wideExpr = "a" + strings.Repeat(".(b|_)?", 35) + ".c"

// FuzzKernelAgainstReference checks the table-driven kernel against the
// interpreted oracle of reference.go on a cyclic graph: Eval and MatchesNode
// must return the oracle's results and charge the oracle's exact sequence of
// visits, whatever the expression — wildcards, options, nested stars,
// descendant steps, labels the table has never interned, a label interned
// only after compilation, and automata wider than one 64-bit word.
func FuzzKernelAgainstReference(f *testing.F) {
	for i, seed := range []string{
		"a", "_", "a.b", "a//c", "//d", "(a|b).c?", "a.(b|c)*.a", "(a*)*", "((a|_)*.b?)*.c",
		"_*._*", "a?.b?.c?", "zz", "a.zz?.b", "(a|zz)*//late", "ROOT//_", "_.late", wideExpr,
	} {
		f.Add(seed, int64(i))
	}
	f.Fuzz(func(t *testing.T, src string, seed int64) {
		if len(src) > 256 {
			return // keep automata small
		}
		e, err := Parse(src)
		if err != nil {
			return
		}
		g := cyclicGraph(seed)
		c := CompileExpr(e, g.Labels())
		// A label the compiled tables have no entry for: only wildcards may
		// consume it.
		g.AddEdge(graph.NodeID(seed&31), g.AddNode("late"))

		var got, want []graph.NodeID
		res := c.Eval(g, func(n graph.NodeID) { got = append(got, n) })
		ref := c.ReferenceEval(g, func(n graph.NodeID) { want = append(want, n) })
		if !slices.Equal(res, ref) {
			t.Fatalf("%q: Eval = %v, reference %v", src, res, ref)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%q: Eval visited %d nodes %v, reference %d %v", src, len(got), got, len(want), want)
		}
		matched := make(map[graph.NodeID]bool, len(res))
		for _, n := range res {
			matched[n] = true
		}
		for n := 0; n < g.NumNodes(); n++ {
			got, want = got[:0], want[:0]
			ok := c.MatchesNode(g, graph.NodeID(n), func(n graph.NodeID) { got = append(got, n) })
			refOK := c.ReferenceMatchesNode(g, graph.NodeID(n), func(n graph.NodeID) { want = append(want, n) })
			if ok != refOK || ok != matched[graph.NodeID(n)] {
				t.Fatalf("%q: MatchesNode(%d) = %v, reference %v, Eval %v", src, n, ok, refOK, matched[graph.NodeID(n)])
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%q: MatchesNode(%d) visited %d nodes %v, reference %d %v", src, n, len(got), got, len(want), want)
			}
		}
		if c.fwd.MatchesEmpty() != c.fwd.anyAccept(c.fwd.startSet()) {
			t.Fatalf("%q: MatchesEmpty disagrees with the interpreter", src)
		}
	})
}
