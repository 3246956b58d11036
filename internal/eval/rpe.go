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
// always validate, which is conservative but exact. Validation of large
// extents is spread across CPUs: each member's reversed-automaton search is
// independent, so the per-chunk charges sum to the serial Cost exactly.
func IndexRPE(ig *index.IndexGraph, c *rpe.Compiled) ([]graph.NodeID, Cost) {
	return IndexRPETraced(ig, c, nil)
}

// IndexRPETraced is IndexRPE with per-stage tracing: the automaton run over
// the index graph records "rpe_seed" and "rpe_fixpoint" spans (inside
// Compiled.EvalTraced) and the validation loop a "validate" span. A nil trace
// is free, and the cost counters are identical with tracing on or off.
func IndexRPETraced(ig *index.IndexGraph, c *rpe.Compiled, tr *obs.Trace) ([]graph.NodeID, Cost) {
	var cost Cost
	matched := c.EvalTraced(ig, func(graph.NodeID) { cost.IndexNodesVisited++ }, tr)
	data := ig.Data()
	st := tr.StageStart()
	// As in IndexTraced: sound extents stay compressed until the final
	// disjoint-set merge, unsound ones decompress into a pooled buffer.
	check := func(d graph.NodeID, charge func(graph.NodeID)) bool {
		return c.MatchesNode(data, d, charge)
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
		vs.hits, charged = validateMembers(vs.hits, vs.ext, check)
		cost.DataNodesValidated += charged
	}
	res := vs.finish()
	tr.EndStage("validate", st)
	tr.RecordCost(cost.IndexNodesVisited, cost.DataNodesValidated, cost.Validations, len(res))
	return res, cost
}
