package eval

import (
	"testing"

	"dkindex/internal/graph"
	"dkindex/internal/index"
	"dkindex/internal/obs"
	"dkindex/internal/rpe"
)

func spanNames(tr *obs.Trace) []string {
	names := make([]string, len(tr.Spans))
	for i, s := range tr.Spans {
		names[i] = s.Name
	}
	return names
}

// TestTracedCostBitIdentical checks that evaluating with a live trace leaves
// the results and every cost counter bit-for-bit identical to the untraced
// evaluation — tracing observes the cost model, it never participates in it.
func TestTracedCostBitIdentical(t *testing.T) {
	g := graph.FigureOneMovies()
	ls := index.BuildLabelSplit(g) // k=0 everywhere: forces validation
	q := mustQuery(t, g, "director.movie.title")

	plain, plainCost := Index(ls, q)
	tr := &obs.Trace{Kind: "path", Query: "director.movie.title"}
	traced, tracedCost := materialize(IndexTraced(ls, q, tr))
	if !SameResult(plain, traced) {
		t.Errorf("traced result %v != untraced %v", traced, plain)
	}
	if plainCost != tracedCost {
		t.Errorf("traced cost %+v != untraced %+v", tracedCost, plainCost)
	}
	if got := spanNames(tr); len(got) != 2 || got[0] != "match" || got[1] != "validate" {
		t.Errorf("spans = %v, want [match validate]", got)
	}
	if tr.IndexNodesVisited != plainCost.IndexNodesVisited ||
		tr.DataNodesValidated != plainCost.DataNodesValidated ||
		tr.Validations != plainCost.Validations || tr.Results != len(plain) {
		t.Errorf("trace cost %+v disagrees with evaluation cost %+v", tr, plainCost)
	}
}

func TestTracedRPEBitIdentical(t *testing.T) {
	g := graph.FigureOneMovies()
	ls := index.BuildLabelSplit(g)
	e, err := rpe.Parse("director.movie.title")
	if err != nil {
		t.Fatal(err)
	}
	c := rpe.CompileExpr(e, g.Labels())

	plain, plainCost := IndexRPE(ls, c)
	tr := &obs.Trace{Kind: "rpe"}
	traced, tracedCost := materialize(IndexRPETraced(ls, c, tr))
	if !SameResult(plain, traced) || plainCost != tracedCost {
		t.Errorf("traced (%v, %+v) != untraced (%v, %+v)", traced, tracedCost, plain, plainCost)
	}
	got := spanNames(tr)
	if len(got) != 3 || got[0] != "rpe_seed" || got[1] != "rpe_fixpoint" || got[2] != "validate" {
		t.Errorf("spans = %v, want [rpe_seed rpe_fixpoint validate]", got)
	}
}

func TestTracedTwigBitIdentical(t *testing.T) {
	g := graph.FigureOneMovies()
	ls := index.BuildLabelSplit(g)
	tw, err := ParseTwig(g.Labels(), "movie[actor.name].title")
	if err != nil {
		t.Fatal(err)
	}

	plain, plainCost := IndexTwig(ls, tw)
	tr := &obs.Trace{Kind: "twig"}
	traced, tracedCost := materialize(IndexTwigTraced(ls, tw, tr))
	if !SameResult(plain, traced) || plainCost != tracedCost {
		t.Errorf("traced (%v, %+v) != untraced (%v, %+v)", traced, tracedCost, plain, plainCost)
	}
	if got := spanNames(tr); len(got) != 2 || got[0] != "match" || got[1] != "validate" {
		t.Errorf("spans = %v, want [match validate]", got)
	}
}
