package rpe

import (
	"runtime"
	"slices"
	"strings"
	"testing"

	"dkindex/internal/cow/cowtest"
	"dkindex/internal/graph"
)

// reverseExpr mirrors an expression so that L(rev) = reversed L(e). It is
// the reference CompileExpr's direct reversal is held to: compiling the
// mirrored tree forwards must give the reversed automaton, state for state.
func reverseExpr(e Expr) Expr {
	switch x := e.(type) {
	case Label, Wildcard:
		return x
	case Seq:
		return Seq{L: reverseExpr(x.R), R: reverseExpr(x.L)}
	case Alt:
		return Alt{L: reverseExpr(x.L), R: reverseExpr(x.R)}
	case Opt:
		return Opt{X: reverseExpr(x.X)}
	case Star:
		return Star{X: reverseExpr(x.X)}
	}
	panic("rpe: unknown expression type")
}

// reversalCorpus is every expression the package's tests parse or evaluate,
// and FuzzKernelAgainstReference's seeds; sources that do not parse are
// skipped.
var reversalCorpus = []string{
	// Parser tests and FuzzParse seeds.
	"a", "_", "a.b", "a.b.c", "(a|b)", "a?", "a*", "(a.b)*", "(a|b).c",
	"a.b|c", "a.b*", "a//b", "a.(_)*.b", "//a", "(_)*.a",
	"(a|b)*", "a?.b*", "movieDB.(_)?.movie.actor.name", "((((a))))", "a|b|c|d",
	"a**", "a??", "ROOT//title", "open_auction.itemref//name", "a._.b", "_foo.bar",
	"a|b.c", "a.b?", "a.b*.c", "_._",
	// Evaluation and validation tests.
	"director.movie.title", "(director|actor).name", "movieDB//title", "director//name",
	"_.movie", "director?.movie", "warehouse.title", "a.(b.a)*", "ROOT.a.(b.a)*.b",
	"movie?", "zzz?", "movie.title", "movieDB//name", "(director|actor).movie",
	"actor.movie.title", "a.(b.a)*.b", "a//c", "a.(b|c)*.a", "_.b.c?",
	// FuzzKernelAgainstReference seeds.
	"//d", "(a|b).c?", "(a*)*", "((a|_)*.b?)*.c", "_*._*", "a?.b?.c?", "zz", "a.zz?.b",
	"(a|zz)*//late", "ROOT//_", "_.late", "a" + strings.Repeat(".(b|_)?", 35) + ".c",
}

// TestDirectReversalMatchesMirroredTree holds the reversed automaton
// CompileExpr builds directly to the forward compile of reverseExpr's
// mirrored tree, field for field: validation queues states in ascending
// order, so what it charges depends on the numbering as well as on the
// language.
func TestDirectReversalMatchesMirroredTree(t *testing.T) {
	g := graph.FigureOneMovies()
	for _, l := range []string{"a", "b", "c", "d"} {
		g.AddNode(l)
	}
	for _, src := range reversalCorpus {
		e, err := Parse(src)
		if err != nil {
			continue
		}
		got, want := CompileExpr(e, g.Labels()).rev, Compile(reverseExpr(e), g.Labels())
		if got.words != want.words ||
			!slices.Equal(got.first, want.first) || !slices.Equal(got.label, want.label) ||
			!slices.Equal(got.target, want.target) || !slices.Equal(got.start, want.start) ||
			!slices.Equal(got.final, want.final) {
			t.Errorf("%q: reversed automaton\n got %+v\nwant %+v", src, got, want)
		}
	}
}

// TestCompileAllocatesOnlyItsTables pins what a compile costs once the
// builder pool is warm: the Compiled and, per automaton, the NFA and its
// three tables — nine objects, 496 bytes for site//name.
func TestCompileAllocatesOnlyItsTables(t *testing.T) {
	if cowtest.RaceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled scratch at random")
	}
	labels := graph.New().Labels()
	labels.Intern("site")
	labels.Intern("name")
	e := mustParse("site//name")
	compile := func() { CompileExpr(e, labels) }
	compile()
	allocs := testing.AllocsPerRun(100, compile)
	const runs = 100
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range runs {
		compile()
	}
	runtime.ReadMemStats(&m1)
	bytes := (m1.TotalAlloc - m0.TotalAlloc) / runs
	t.Logf("CompileExpr(site//name): %.0f allocations, %d bytes", allocs, bytes)
	if allocs > 9 || bytes > 512 {
		t.Errorf("CompileExpr(site//name) allocates %.0f times and %d bytes, want at most 9 and 512", allocs, bytes)
	}
}
