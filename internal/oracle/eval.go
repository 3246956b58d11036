// Package oracle holds the reference implementations the optimised kernels
// are audited against: path, twig and regular-path-expression evaluation,
// bisimulation refinement and the D(k) construction. Each one is written
// here from the paper's definitions, in the plainest form that gives the
// same answer — maps, full scans, fixpoints iterated until nothing changes —
// and shares no code with the kernel it checks, only the exported input
// types (graph.Graph, index.IndexGraph, partition.Labeled, rpe.Expr,
// eval.Query, eval.Twig) and the exported result types. A bug in a kernel
// therefore cannot hide by being on both sides of an audit.
//
// Only tests import this package; no binary links it.
package oracle

import (
	"slices"

	"dkindex/internal/eval"
	"dkindex/internal/graph"
	"dkindex/internal/index"
	"dkindex/internal/partition"
)

// Data evaluates a simple path query on the data graph: the nodes at the end
// of some node path spelling q. Cost.IndexNodesVisited counts every node
// that entered a frontier, as eval.Data charges it.
func Data(g *graph.Graph, q eval.Query) ([]graph.NodeID, eval.Cost) {
	return DataTwig(g, pathTwig(q))
}

// Index evaluates q on a summary: the query runs over the index graph, an
// index node whose local similarity covers the query contributes its extent,
// and any other is validated member by member against the data graph.
func Index(ig *index.IndexGraph, q eval.Query) ([]graph.NodeID, eval.Cost) {
	return onIndex(ig, pathTwig(q), func(m graph.NodeID) bool { return ig.K(m) >= q.Length() })
}

// IndexNoValidation is Index trusting every match: the union of the matched
// extents, which over-answers wherever the summary is not sound for q.
func IndexNoValidation(ig *index.IndexGraph, q eval.Query) ([]graph.NodeID, eval.Cost) {
	return onIndex(ig, pathTwig(q), func(graph.NodeID) bool { return true })
}

// MatchesNode reports whether some node path of g ending at n spells q (an
// empty q matches every node), and how many nodes the check inspected.
func MatchesNode(g *graph.Graph, q eval.Query, n graph.NodeID) (bool, int) {
	if len(q) == 0 {
		return true, 0
	}
	visits := 0
	ok := newTwigEval(g, pathTwig(q), &visits).endsAt(n, len(q)-1, map[stepNode]bool{})
	return ok, visits
}

// DataTwig evaluates a branching path query on the data graph.
func DataTwig(g *graph.Graph, q *eval.Twig) ([]graph.NodeID, eval.Cost) {
	var c eval.Cost
	return newTwigEval(g, q, &c.IndexNodesVisited).trunk(), c
}

// IndexTwig evaluates a branching path query on a summary. Only an
// F&B-stable index answers it from extents alone; on any other every match
// is validated.
func IndexTwig(ig *index.IndexGraph, q *eval.Twig) ([]graph.NodeID, eval.Cost) {
	return onIndex(ig, q, func(graph.NodeID) bool { return ig.FBStable() })
}

// pathTwig is q as a predicate-free twig.
func pathTwig(q eval.Query) *eval.Twig {
	tw := &eval.Twig{Steps: make([]eval.TwigStep, len(q))}
	for i, l := range q {
		tw.Steps[i].Label = l
	}
	return tw
}

// onIndex matches q's trunk on ig and answers each match from its extent
// when sound says so, else by validating every member on a fresh evaluator
// per match, charging what validation inspects.
func onIndex(ig *index.IndexGraph, q *eval.Twig, sound func(m graph.NodeID) bool) ([]graph.NodeID, eval.Cost) {
	var c eval.Cost
	var res []graph.NodeID
	for _, m := range newTwigEval(ig, q, &c.IndexNodesVisited).trunk() {
		if sound(m) {
			res = append(res, ig.Extent(m)...)
			continue
		}
		c.Validations++
		v := newTwigEval(ig.Data(), q, &c.DataNodesValidated)
		for _, d := range ig.Extent(m) {
			if v.endsAt(d, len(q.Steps)-1, map[stepNode]bool{}) {
				res = append(res, d)
			}
		}
	}
	slices.Sort(res)
	return res, c
}

// stepNode keys the memo maps: a step of the query, identified by its
// address, and a node.
type stepNode struct {
	s *eval.TwigStep
	n graph.NodeID
}

// twigEval evaluates one twig over one graph, adding one to *visits for
// every node it inspects.
type twigEval struct {
	g      partition.ChildrenAccess
	q      *eval.Twig
	visits *int
	below  map[stepNode]bool // does a chain from step s of a predicate start below n?
}

func newTwigEval(g partition.ChildrenAccess, q *eval.Twig, visits *int) *twigEval {
	return &twigEval{g: g, q: q, visits: visits, below: map[stepNode]bool{}}
}

// holds reports whether n carries step s's label and satisfies its
// predicates.
func (e *twigEval) holds(n graph.NodeID, s *eval.TwigStep) bool {
	if e.g.Label(n) != s.Label {
		return false
	}
	for _, pred := range s.Preds {
		if !e.down(n, pred, 0) {
			return false
		}
	}
	return true
}

// down reports whether some child chain of n matches pred from step i on.
// A (step, node) pair under evaluation counts as false, which cuts cycles.
func (e *twigEval) down(n graph.NodeID, pred *eval.Twig, i int) bool {
	key := stepNode{&pred.Steps[i], n}
	if v, ok := e.below[key]; ok {
		return v
	}
	e.below[key] = false
	res := false
	for _, c := range e.g.Children(n) {
		*e.visits++
		if e.holds(c, &pred.Steps[i]) && (i == len(pred.Steps)-1 || e.down(c, pred, i+1)) {
			res = true
			break
		}
	}
	e.below[key] = res
	return res
}

// trunk returns, ascending, the nodes that end a match of the whole trunk:
// every node with the first label is inspected, then each step inspects the
// children of the frontier that carry its label, once each once accepted.
func (e *twigEval) trunk() []graph.NodeID {
	if len(e.q.Steps) == 0 {
		return nil
	}
	cur := map[graph.NodeID]bool{}
	for n := range e.g.NumNodes() {
		id := graph.NodeID(n)
		if e.g.Label(id) == e.q.Steps[0].Label {
			*e.visits++
			if e.holds(id, &e.q.Steps[0]) {
				cur[id] = true
			}
		}
	}
	for i := 1; i < len(e.q.Steps) && len(cur) > 0; i++ {
		next := map[graph.NodeID]bool{}
		for n := range cur {
			for _, c := range e.g.Children(n) {
				if e.g.Label(c) == e.q.Steps[i].Label && !next[c] {
					*e.visits++
					if e.holds(c, &e.q.Steps[i]) {
						next[c] = true
					}
				}
			}
		}
		cur = next
	}
	var out []graph.NodeID
	for n := range cur {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

// endsAt reports whether trunk steps 0..i match a node path ending at n,
// walking parents; memo is the caller's, one per validated member.
func (e *twigEval) endsAt(n graph.NodeID, i int, memo map[stepNode]bool) bool {
	*e.visits++
	if !e.holds(n, &e.q.Steps[i]) {
		return false
	}
	if i == 0 {
		return true
	}
	key := stepNode{&e.q.Steps[i], n}
	if v, ok := memo[key]; ok {
		return v
	}
	memo[key] = false
	res := false
	for _, p := range e.g.Parents(n) {
		if e.endsAt(p, i-1, memo) {
			res = true
			break
		}
	}
	memo[key] = res
	return res
}
