package eval

import (
	"dkindex/internal/graph"
	"dkindex/internal/index"
	"dkindex/internal/obs"
	"dkindex/internal/rpe"
)

// DataRPE evaluates a compiled regular path expression directly on the data
// graph (ground truth for expression queries).
func DataRPE(g *graph.Graph, c *rpe.Compiled) ([]graph.NodeID, Cost) {
	var cost Cost
	res := c.Eval(g, func(graph.NodeID) { cost.IndexNodesVisited++ })
	return res, cost
}

// IndexRPE evaluates a compiled regular path expression on a structural
// summary. Matched index nodes whose local similarity covers the longest
// word the expression can produce contribute their extents wholesale; the
// rest are validated member by member against the data graph with the
// reversed automaton. Unbounded expressions (containing a reachable star)
// always validate, which is conservative but exact.
func IndexRPE(ig *index.IndexGraph, c *rpe.Compiled) ([]graph.NodeID, Cost) {
	return materialize(IndexRPETraced(ig, c, nil))
}

// IndexRPETraced is IndexRPE returning the unmerged Answer, with per-stage
// tracing: the automaton run over the index graph records "rpe_seed" and
// "rpe_fixpoint" spans (inside Compiled.EvalTraced) and the validation loop a
// "validate" span. A nil trace is free, and the cost counters are identical
// with tracing on or off.
func IndexRPETraced(ig *index.IndexGraph, c *rpe.Compiled, tr *obs.Trace) (Answer, Cost) {
	var cost Cost
	matched := c.EvalTraced(ig, func(graph.NodeID) { cost.IndexNodesVisited++ }, tr)
	data := ig.Data()
	st := tr.StageStart()
	// As in twigEval.onIndex: sound extents stay compressed in the Answer,
	// unsound ones decompress into a pooled buffer.
	validate := func(dst, members []graph.NodeID) ([]graph.NodeID, int) {
		charged := 0
		charge := func(graph.NodeID) { charged++ }
		for _, d := range members {
			if c.MatchesNode(data, d, charge) {
				dst = append(dst, d)
			}
		}
		return dst, charged
	}
	vs := valScratchPool.Get().(*valScratch)
	for _, m := range matched {
		if c.MaxLen >= 0 && c.MaxLen-1 <= ig.K(m) {
			vs.sound = append(vs.sound, ig.ExtentSet(m))
			continue
		}
		cost.Validations++
		vs.ext = ig.AppendExtent(vs.ext[:0], m)
		var charged int
		vs.hits, charged = validate(vs.hits, vs.ext)
		cost.DataNodesValidated += charged
	}
	ans := vs.answer()
	tr.EndStage("validate", st)
	tr.RecordCost(cost.IndexNodesVisited, cost.DataNodesValidated, cost.Validations, ans.Len())
	return ans, cost
}
