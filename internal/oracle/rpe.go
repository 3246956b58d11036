package oracle

import (
	"slices"

	"dkindex/internal/eval"
	"dkindex/internal/graph"
	"dkindex/internal/index"
	"dkindex/internal/partition"
	"dkindex/internal/rpe"
)

// RPE is a regular path expression compiled by the oracle's own Thompson
// construction, forwards for evaluation and reversed for validation, and
// interpreted directly: state sets are []bool, every step walks the epsilon
// closure, working state lives in per-call maps.
type RPE struct {
	fwd, rev *nfa
	maxLen   int // longest word, -1 when unbounded
}

// nfa is a Thompson automaton; state 0 starts it. States are numbered in the
// order rpe.Compile numbers them, because validation queues states in
// ascending order and what it charges depends on that order.
type nfa struct {
	eps    [][]int32
	moves  [][]move
	accept []bool
}

// move consumes one node: any node when any is set, else one labelled label.
type move struct {
	label graph.LabelID
	any   bool
	to    int32
}

// CompileRPE compiles e against the label table t. A label t does not know
// compiles to graph.InvalidLabel, which no node carries.
func CompileRPE(e rpe.Expr, t *graph.LabelTable) *RPE {
	return &RPE{fwd: thompson(e, t), rev: thompson(reversed(e), t), maxLen: longestWord(e)}
}

func thompson(e rpe.Expr, t *graph.LabelTable) *nfa {
	a := &nfa{}
	end := a.wire(e, t, a.state())
	a.accept[end] = true
	return a
}

func (a *nfa) state() int32 {
	a.eps = append(a.eps, nil)
	a.moves = append(a.moves, nil)
	a.accept = append(a.accept, false)
	return int32(len(a.accept) - 1)
}

// wire builds e from state from to a new exit state, which it returns.
func (a *nfa) wire(e rpe.Expr, t *graph.LabelTable, from int32) int32 {
	switch x := e.(type) {
	case rpe.Label, rpe.Wildcard:
		m := move{any: true}
		if l, ok := x.(rpe.Label); ok {
			m = move{label: t.Lookup(l.Name)}
		}
		m.to = a.state()
		a.moves[from] = append(a.moves[from], m)
		return m.to
	case rpe.Seq:
		return a.wire(x.R, t, a.wire(x.L, t, from))
	case rpe.Alt:
		l, r := a.wire(x.L, t, from), a.wire(x.R, t, from)
		to := a.state()
		a.eps[l] = append(a.eps[l], to)
		a.eps[r] = append(a.eps[r], to)
		return to
	case rpe.Opt:
		to := a.wire(x.X, t, from)
		a.eps[from] = append(a.eps[from], to)
		return to
	case rpe.Star:
		// from -> loop, loop ... end -> loop, and from and end both exit.
		loop := a.state()
		a.eps[from] = append(a.eps[from], loop)
		end := a.wire(x.X, t, loop)
		to := a.state()
		a.eps[end] = append(a.eps[end], loop, to)
		a.eps[from] = append(a.eps[from], to)
		return to
	}
	panic("oracle: unknown expression type")
}

// reversed returns an expression whose words are e's, reversed.
func reversed(e rpe.Expr) rpe.Expr {
	switch x := e.(type) {
	case rpe.Seq:
		return rpe.Seq{L: reversed(x.R), R: reversed(x.L)}
	case rpe.Alt:
		return rpe.Alt{L: reversed(x.L), R: reversed(x.R)}
	case rpe.Opt:
		return rpe.Opt{X: reversed(x.X)}
	case rpe.Star:
		return rpe.Star{X: reversed(x.X)}
	}
	return e
}

// longestWord returns the length of e's longest word, -1 when unbounded.
func longestWord(e rpe.Expr) int {
	switch x := e.(type) {
	case rpe.Seq:
		if l, r := longestWord(x.L), longestWord(x.R); l >= 0 && r >= 0 {
			return l + r
		}
		return -1
	case rpe.Alt:
		if l, r := longestWord(x.L), longestWord(x.R); l >= 0 && r >= 0 {
			return max(l, r)
		}
		return -1
	case rpe.Opt:
		return longestWord(x.X)
	case rpe.Star:
		return -1
	}
	return 1
}

// closed adds to set every state epsilon-reachable from it.
func (a *nfa) closed(set []bool) []bool {
	for changed := true; changed; {
		changed = false
		for q, in := range set {
			for _, r := range a.eps[q] {
				if in && !set[r] {
					set[r], changed = true, true
				}
			}
		}
	}
	return set
}

// start is the closure of the start state.
func (a *nfa) start() []bool {
	set := make([]bool, len(a.accept))
	set[0] = true
	return a.closed(set)
}

// step returns the closed set after set consumes a node labelled l, or nil
// when no move fires.
func (a *nfa) step(set []bool, l graph.LabelID) []bool {
	var out []bool
	for q, in := range set {
		for _, m := range a.moves[q] {
			if in && (m.any || m.label == l) {
				if out == nil {
					out = make([]bool, len(set))
				}
				out[m.to] = true
			}
		}
	}
	if out == nil {
		return nil
	}
	return a.closed(out)
}

// MatchesEmpty reports whether the expression accepts the empty word.
func (r *RPE) MatchesEmpty() bool { return r.fwd.accepts(r.fwd.start()) }

func (a *nfa) accepts(set []bool) bool {
	for q, in := range set {
		if in && a.accept[q] {
			return true
		}
	}
	return false
}

// Eval returns, ascending, the nodes of g that end a node path spelling a
// word of the expression. Every node whose label starts a word is queued in
// node order; a queued node is expanded (one call to visited) and each child
// whose state set grows is queued again unless already waiting.
func (r *RPE) Eval(g partition.ChildrenAccess, visited func(graph.NodeID)) []graph.NodeID {
	a, n := r.fwd, g.NumNodes()
	states := make([][]bool, n)
	var queue []graph.NodeID
	queued := map[graph.NodeID]bool{}
	push := func(id graph.NodeID) {
		if !queued[id] {
			queued[id] = true
			queue = append(queue, id)
		}
	}
	start := a.start()
	for i := range n {
		if s := a.step(start, g.Label(graph.NodeID(i))); s != nil {
			states[i] = s
			push(graph.NodeID(i))
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue, queued[cur] = queue[1:], false
		visited(cur)
		for _, ch := range g.Children(cur) {
			delta := a.step(states[cur], g.Label(ch))
			grew := false
			for q, in := range delta {
				if in && (states[ch] == nil || !states[ch][q]) {
					if states[ch] == nil {
						states[ch] = make([]bool, len(delta))
					}
					states[ch][q], grew = true, true
				}
			}
			if grew {
				push(ch)
			}
		}
	}
	var out []graph.NodeID
	for i, s := range states {
		if a.accepts(s) {
			out = append(out, graph.NodeID(i))
		}
	}
	return out
}

// MatchesNode reports whether some node path ending at node spells a word:
// a breadth-first search over (node, reversed-automaton state) pairs along
// parent edges, each pair queued once, states queued in ascending order.
// visited hears every node the search inspects, once.
func (r *RPE) MatchesNode(g partition.Labeled, node graph.NodeID, visited func(graph.NodeID)) bool {
	type pair struct {
		n graph.NodeID
		q int
	}
	a := r.rev
	queued, charged := map[pair]bool{}, map[graph.NodeID]bool{}
	var queue []pair
	visit := func(n graph.NodeID) {
		if !charged[n] {
			charged[n] = true
			visited(n)
		}
	}
	// enqueue reports acceptance, else queues set's new pairs at n.
	enqueue := func(n graph.NodeID, set []bool) bool {
		if a.accepts(set) {
			return true
		}
		for q, in := range set {
			if in && !queued[pair{n, q}] {
				queued[pair{n, q}] = true
				queue = append(queue, pair{n, q})
			}
		}
		return false
	}
	visit(node)
	first := a.step(a.start(), g.Label(node))
	if first == nil {
		return false
	}
	if enqueue(node, first) {
		return true
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		visit(cur.n)
		single := make([]bool, len(a.accept))
		single[cur.q] = true
		for _, p := range g.Parents(cur.n) {
			if next := a.step(single, g.Label(p)); next != nil && enqueue(p, next) {
				visit(p)
				return true
			}
		}
	}
	return false
}

// DataRPE evaluates the expression on the data graph, charging each
// expansion as a visit.
func DataRPE(g *graph.Graph, r *RPE) ([]graph.NodeID, eval.Cost) {
	var c eval.Cost
	return r.Eval(g, func(graph.NodeID) { c.IndexNodesVisited++ }), c
}

// IndexRPE evaluates the expression on a summary: a match whose local
// similarity covers every word (a bounded expression of at most k+1 labels)
// contributes its extent, any other is validated member by member.
func IndexRPE(ig *index.IndexGraph, r *RPE) ([]graph.NodeID, eval.Cost) {
	var c eval.Cost
	var res []graph.NodeID
	for _, m := range r.Eval(ig, func(graph.NodeID) { c.IndexNodesVisited++ }) {
		if r.maxLen >= 0 && r.maxLen-1 <= ig.K(m) {
			res = append(res, ig.Extent(m)...)
			continue
		}
		c.Validations++
		for _, d := range ig.Extent(m) {
			if r.MatchesNode(ig.Data(), d, func(graph.NodeID) { c.DataNodesValidated++ }) {
				res = append(res, d)
			}
		}
	}
	slices.Sort(res)
	return res, c
}
