package experiments

import (
	"fmt"
	"testing"

	"dkindex/internal/core"
	"dkindex/internal/eval"
	"dkindex/internal/index"
	"dkindex/internal/oracle"
	"dkindex/internal/rpe"
)

// The query fast path (posting-list seeding, dense frontiers, pooled
// scratch) must be observationally identical to the map-based evaluators of
// internal/oracle: same results AND the same value in every Cost counter,
// query by query. This audit assembles the index states behind every reported
// experiment — the Figure 4/5 before-update family, the Figure 6/7 / Table 1
// after-update states, and the Figure family spectrum — and runs both
// implementations side by side over the full path, expression, and twig
// loads.

type auditState struct {
	name string
	ig   *index.IndexGraph
}

// auditStates builds the index states of the reported experiments.
func auditStates(t *testing.T, ds *Dataset) []auditState {
	t.Helper()
	maxK := ds.W.MaxLength()
	var states []auditState
	// Figure 4/5: the before-update A(k) series plus the load-tuned D(k).
	for k := 0; k <= maxK; k++ {
		states = append(states, auditState{fmt.Sprintf("A(%d)", k), index.BuildAK(ds.G, k)})
	}
	states = append(states, auditState{"D(k)", core.Build(ds.G, ds.W.Requirements()).IG})
	// Family spectrum: label split, 1-index, F&B (fig: family comparison).
	states = append(states, auditState{"label-split", index.BuildLabelSplit(ds.G)})
	states = append(states, auditState{"1-index", index.Build1Index(ds.G)})
	states = append(states, auditState{"F&B", index.BuildFB(ds.G)})
	// Figure 6/7 and Table 1: the after-update states. Each index gets its
	// own clone and absorbs the same random reference edges with its own
	// update algorithm.
	edges, err := ds.RandomEdges(20, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, maxK} {
		sub := ds.withGraph(ds.G.Clone())
		ig := index.BuildAK(sub.G, k)
		for _, e := range edges {
			index.AKEdgeUpdate(ig, k, e[0], e[1])
		}
		states = append(states, auditState{fmt.Sprintf("A(%d)+updates", k), ig})
	}
	sub := ds.withGraph(ds.G.Clone())
	dk := core.Build(sub.G, sub.W.Requirements())
	for _, e := range edges {
		dk.AddEdge(e[0], e[1])
	}
	states = append(states, auditState{"D(k)+updates", dk.IG})
	return states
}

// auditExprs derives a regular-expression load from the path load: bounded
// concatenations, alternations over first labels, and unbounded star/
// wildcard forms that force the always-validate branch.
func auditExprs(t *testing.T, ds *Dataset) []*rpe.Compiled {
	t.Helper()
	tab := ds.G.Labels()
	var out []*rpe.Compiled
	for i, q := range ds.W.Queries {
		if i >= 12 {
			break
		}
		src := q.Format(tab)
		var expr string
		switch i % 4 {
		case 0: // plain bounded concatenation
			expr = src
		case 1: // optional tail step
			expr = src + "._?"
		case 2: // alternation of two queries
			expr = "(" + src + "|" + ds.W.Queries[(i+1)%len(ds.W.Queries)].Format(tab) + ")"
		default: // unbounded: descendant-style wildcard closure
			expr = src + "._*"
		}
		e, err := rpe.Parse(expr)
		if err != nil {
			t.Fatalf("parse %q: %v", expr, err)
		}
		out = append(out, rpe.CompileExpr(e, tab))
	}
	return out
}

func sameCost(a, b eval.Cost) bool { return a == b }

func auditDataset(t *testing.T, ds *Dataset) {
	t.Helper()
	exprs := auditExprs(t, ds)
	twigs := deriveTwigLoad(ds)

	// Direct (data graph) evaluation: audited once per dataset.
	for _, q := range ds.W.Queries {
		got, gc := eval.Data(ds.G, q)
		want, wc := oracle.Data(ds.G, q)
		if !eval.SameResult(got, want) || !sameCost(gc, wc) {
			t.Fatalf("Data diverges on %s: cost %+v vs %+v", q.Format(ds.G.Labels()), gc, wc)
		}
	}
	for _, c := range exprs {
		got, gc := eval.DataRPE(ds.G, c)
		want, wc := oracle.DataRPE(ds.G, oracle.CompileRPE(c.Expr, ds.G.Labels()))
		if !eval.SameResult(got, want) || !sameCost(gc, wc) {
			t.Fatalf("DataRPE diverges on %s: cost %+v vs %+v", c.Expr, gc, wc)
		}
	}
	for _, tw := range twigs {
		got, gc := eval.DataTwig(ds.G, tw)
		want, wc := oracle.DataTwig(ds.G, tw)
		if !eval.SameResult(got, want) || !sameCost(gc, wc) {
			t.Fatalf("DataTwig diverges on %s: cost %+v vs %+v", tw.Format(ds.G.Labels()), gc, wc)
		}
	}

	for _, st := range auditStates(t, ds) {
		g := st.ig.Data()
		for _, q := range ds.W.Queries {
			got, gc := eval.Index(st.ig, q)
			want, wc := oracle.Index(st.ig, q)
			if !eval.SameResult(got, want) || !sameCost(gc, wc) {
				t.Fatalf("%s: Index diverges on %s: cost %+v vs %+v",
					st.name, q.Format(g.Labels()), gc, wc)
			}
		}
		for _, c := range exprs {
			got, gc := eval.IndexRPE(st.ig, c)
			want, wc := oracle.IndexRPE(st.ig, oracle.CompileRPE(c.Expr, ds.G.Labels()))
			if !eval.SameResult(got, want) || !sameCost(gc, wc) {
				t.Fatalf("%s: IndexRPE diverges on %s: cost %+v vs %+v", st.name, c.Expr, gc, wc)
			}
		}
		for _, tw := range twigs {
			got, gc := eval.IndexTwig(st.ig, tw)
			want, wc := oracle.IndexTwig(st.ig, tw)
			if !eval.SameResult(got, want) || !sameCost(gc, wc) {
				t.Fatalf("%s: IndexTwig diverges on %s: cost %+v vs %+v",
					st.name, tw.Format(g.Labels()), gc, wc)
			}
		}
	}
}

func TestFastPathBitIdenticalXMark(t *testing.T) {
	auditDataset(t, testXMark(t))
}

func TestFastPathBitIdenticalNasa(t *testing.T) {
	auditDataset(t, testNasa(t))
}
