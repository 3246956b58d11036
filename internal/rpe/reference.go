package rpe

import (
	"sort"

	"dkindex/internal/graph"
)

// This file preserves the straightforward evaluators as oracles for the
// table-driven kernel in nfa.go and eval.go: the same worklist discipline and
// the same visit charges, run by interpreting the Thompson construction
// directly — []bool state sets, a closure walk per step, per-call maps — and
// sharing no code with the kernel beyond Compile's state numbering. Audits
// run both side by side and assert bit-identical results and costs. Nothing
// on a query path calls into this file; it is not a _test.go file only
// because eval/reference.go and internal/experiments' audit, in other
// packages, build their oracles on it.

// closure expands a state set with epsilon reachability, in place.
func (n *NFA) closure(set []bool) {
	var stack []int32
	for q := range set {
		if set[q] {
			stack = append(stack, int32(q))
		}
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range n.eps[q] {
			if !set[e] {
				set[e] = true
				stack = append(stack, e)
			}
		}
	}
}

// stepOn returns the epsilon-closed successor set of set after consuming a
// node with label l, or nil when no transition fires.
func (n *NFA) stepOn(set []bool, l graph.LabelID) []bool {
	out := make([]bool, len(set))
	any := false
	for q := range set {
		if !set[q] {
			continue
		}
		for _, e := range n.step[q] {
			if e.label == wildLabel || e.label == l {
				out[e.to] = true
				any = true
			}
		}
	}
	if !any {
		return nil
	}
	n.closure(out)
	return out
}

// startSet returns the epsilon closure of the start state.
func (n *NFA) startSet() []bool {
	set := make([]bool, n.NumStates())
	set[0] = true
	n.closure(set)
	return set
}

// anyAccept reports whether the set contains an accepting state.
func (n *NFA) anyAccept(set []bool) bool {
	for q, ok := range set {
		if ok && n.accept[q] {
			return true
		}
	}
	return false
}

// mergeStates ORs delta into *dst, reporting whether *dst grew.
func mergeStates(dst *[]bool, delta []bool) bool {
	if *dst == nil {
		cp := make([]bool, len(delta))
		copy(cp, delta)
		*dst = cp
		return true
	}
	grew := false
	d := *dst
	for q := range delta {
		if delta[q] && !d[q] {
			d[q] = true
			grew = true
		}
	}
	return grew
}

// ReferenceEval is the unoptimized counterpart of Eval: it probes the
// automaton once per node to seed (rather than once per label) and performs
// the same FIFO fixpoint.
func (c *Compiled) ReferenceEval(g Source, visited func(graph.NodeID)) []graph.NodeID {
	n := g.NumNodes()
	states := make([][]bool, n)
	start := c.fwd.startSet()

	queue := make([]graph.NodeID, 0, 64)
	inQueue := make([]bool, n)
	push := func(id graph.NodeID) {
		if !inQueue[id] {
			inQueue[id] = true
			queue = append(queue, id)
		}
	}
	for i := 0; i < n; i++ {
		if s := c.fwd.stepOn(start, g.Label(graph.NodeID(i))); s != nil {
			states[i] = s
			push(graph.NodeID(i))
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		inQueue[cur] = false
		if visited != nil {
			visited(cur)
		}
		for _, ch := range g.Children(cur) {
			delta := c.fwd.stepOn(states[cur], g.Label(ch))
			if delta == nil {
				continue
			}
			if mergeStates(&states[ch], delta) {
				push(ch)
			}
		}
	}

	var out []graph.NodeID
	for i := 0; i < n; i++ {
		if states[i] != nil && c.fwd.anyAccept(states[i]) {
			out = append(out, graph.NodeID(i))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ReferenceMatchesNode is the unoptimized counterpart of MatchesNode: the
// same (node, state) BFS with per-call map working state instead of pooled
// per-node bitsets.
func (c *Compiled) ReferenceMatchesNode(g Source, node graph.NodeID, visited func(graph.NodeID)) bool {
	seen := make(map[pair]bool)
	seenNode := make(map[graph.NodeID]bool)
	var queue []pair
	visit := func(n graph.NodeID) {
		if visited != nil && !seenNode[n] {
			seenNode[n] = true
			visited(n)
		}
	}
	enqueue := func(n graph.NodeID, set []bool) bool {
		for q := range set {
			if !set[q] {
				continue
			}
			if c.rev.accept[q] {
				return true
			}
			it := pair{n, int32(q)}
			if !seen[it] {
				seen[it] = true
				queue = append(queue, it)
			}
		}
		return false
	}

	visit(node)
	startSet := c.rev.stepOn(c.rev.startSet(), g.Label(node))
	if startSet == nil {
		return false
	}
	if enqueue(node, startSet) {
		return true
	}
	single := make([]bool, c.rev.NumStates())
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		visit(cur.n)
		for i := range single {
			single[i] = false
		}
		single[cur.q] = true
		for _, p := range g.Parents(cur.n) {
			next := c.rev.stepOn(single, g.Label(p))
			if next == nil {
				continue
			}
			if enqueue(p, next) {
				visit(p)
				return true
			}
		}
	}
	return false
}
