package rpe

import (
	"math/bits"

	"dkindex/internal/graph"
)

// deadLabel marks transitions on labels the data has never interned: they
// can never fire.
const deadLabel graph.LabelID = -2

// wildLabel marks wildcard transitions.
const wildLabel graph.LabelID = -3

// NFA is a Thompson automaton over node labels, compiled to transition
// tables. State 0 is the start state.
//
// A state set is a bitset of NumStates bits in `words` uint64 words — one
// word for automata of at most 64 states, which is every expression a
// workload has produced so far. Epsilon moves exist only during
// construction: Compile folds the epsilon closure of every consuming edge's
// target into that edge's row of `target`, so stepping a set is an OR over
// the rows of the edges that fire — no allocation and no closure walk at run
// time. Rows are per consuming edge, not per (state, label): the Thompson
// construction gives almost every state at most one consuming edge, so an
// edge's row is next(q, l) for the one label it names, and the tables stay
// |edges| x |states| bits where a dense (state, label) table would be
// |states| x |labels| x |states|.
type NFA struct {
	// The Thompson construction: epsilon successors, consuming transitions
	// and accepting flags per state. Once tabulate has run, only the
	// reference interpreter (reference.go) reads these.
	eps    [][]int32
	step   [][]edge
	accept []bool

	words int
	// Consuming edges of state q are first[q] .. first[q+1]-1; edge e fires
	// on label[e] (a concrete label, wildLabel or deadLabel) and leads to
	// the closed state set target[e*words : (e+1)*words].
	first  []int32
	label  []graph.LabelID
	target []uint64
	// start is the epsilon closure of state 0, final the accepting states.
	start []uint64
	final []uint64
}

type edge struct {
	label graph.LabelID // deadLabel, wildLabel or a concrete label
	to    int32
}

// Compile translates an expression to an NFA, resolving label names against
// the given table. Names the table has never seen compile to dead
// transitions (they cannot match any node), without mutating the table.
func Compile(e Expr, t *graph.LabelTable) *NFA {
	n := &NFA{}
	start := n.newState()
	end := n.build(e, t, start)
	n.accept[end] = true
	n.tabulate()
	return n
}

func (n *NFA) newState() int32 {
	n.eps = append(n.eps, nil)
	n.step = append(n.step, nil)
	n.accept = append(n.accept, false)
	return int32(len(n.accept) - 1)
}

// build wires e between state from and a fresh exit state, which it returns.
func (n *NFA) build(e Expr, t *graph.LabelTable, from int32) int32 {
	switch x := e.(type) {
	case Label:
		to := n.newState()
		l := t.Lookup(x.Name)
		if l == graph.InvalidLabel {
			l = deadLabel
		}
		n.step[from] = append(n.step[from], edge{label: l, to: to})
		return to
	case Wildcard:
		to := n.newState()
		n.step[from] = append(n.step[from], edge{label: wildLabel, to: to})
		return to
	case Seq:
		mid := n.build(x.L, t, from)
		return n.build(x.R, t, mid)
	case Alt:
		lEnd := n.build(x.L, t, from)
		rEnd := n.build(x.R, t, from)
		to := n.newState()
		n.eps[lEnd] = append(n.eps[lEnd], to)
		n.eps[rEnd] = append(n.eps[rEnd], to)
		return to
	case Opt:
		end := n.build(x.X, t, from)
		n.eps[from] = append(n.eps[from], end)
		return end
	case Star:
		// from -eps-> inner ... innerEnd -eps-> from ; exit at from.
		inner := n.newState()
		n.eps[from] = append(n.eps[from], inner)
		innerEnd := n.build(x.X, t, inner)
		n.eps[innerEnd] = append(n.eps[innerEnd], inner)
		to := n.newState()
		n.eps[from] = append(n.eps[from], to)
		n.eps[innerEnd] = append(n.eps[innerEnd], to)
		return to
	}
	panic("rpe: unknown expression type")
}

// tabulate derives the transition tables from the Thompson construction.
func (n *NFA) tabulate() {
	states := len(n.accept)
	w := (states + 63) / 64
	n.words = w
	edges := 0
	for _, es := range n.step {
		edges += len(es)
	}
	// One backing array: edge rows, then start, then final.
	table := make([]uint64, (edges+2)*w)
	n.target, n.start, n.final = table[:edges*w], table[edges*w:(edges+1)*w], table[(edges+1)*w:]
	n.first = make([]int32, states+1)
	n.label = make([]graph.LabelID, 0, edges)
	var stack []int32
	for q, es := range n.step {
		n.first[q] = int32(len(n.label))
		for _, e := range es {
			row := n.target[len(n.label)*w:][:w]
			n.label = append(n.label, e.label)
			stack = n.closeOver(row, e.to, stack)
		}
		if n.accept[q] {
			n.final[q>>6] |= 1 << (q & 63)
		}
	}
	n.first[states] = int32(len(n.label))
	n.closeOver(n.start, 0, stack)
}

// closeOver ORs the epsilon closure of state q into set; stack is scratch,
// returned for reuse.
func (n *NFA) closeOver(set []uint64, q int32, stack []int32) []int32 {
	stack = append(stack[:0], q)
	set[q>>6] |= 1 << (q & 63)
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range n.eps[q] {
			if set[e>>6]&(1<<(e&63)) == 0 {
				set[e>>6] |= 1 << (e & 63)
				stack = append(stack, e)
			}
		}
	}
	return stack
}

// NumStates returns the number of NFA states.
func (n *NFA) NumStates() int { return len(n.accept) }

// stepState ORs into out the closed successor set of the single state q
// after consuming a node labelled l, and reports whether any edge fired.
func (n *NFA) stepState(out []uint64, q int, l graph.LabelID) bool {
	fired := false
	for e := n.first[q]; e < n.first[q+1]; e++ {
		if lab := n.label[e]; lab != l && lab != wildLabel {
			continue
		}
		fired = true
		if n.words == 1 {
			out[0] |= n.target[e]
			continue
		}
		for i, t := range n.target[int(e)*n.words:][:n.words] {
			out[i] |= t
		}
	}
	return fired
}

// stepSet overwrites out with the closed successor set of set after
// consuming a node labelled l, and reports whether it is non-empty. out must
// not alias set: a fixpoint steps from a node's states into a child that may
// be the node itself.
func (n *NFA) stepSet(out, set []uint64, l graph.LabelID) bool {
	clear(out)
	fired := false
	for i, word := range set {
		for ; word != 0; word &= word - 1 {
			if n.stepState(out, i<<6+bits.TrailingZeros64(word), l) {
				fired = true
			}
		}
	}
	return fired
}

// anyFinal reports whether set contains an accepting state.
func (n *NFA) anyFinal(set []uint64) bool {
	for i, word := range set {
		if word&n.final[i] != 0 {
			return true
		}
	}
	return false
}

// MatchesEmpty reports whether the automaton accepts the empty word (such an
// expression matches every node vacuously and is rejected by evaluation
// entry points).
func (n *NFA) MatchesEmpty() bool { return n.anyFinal(n.start) }
