package rpe

import (
	"math/bits"
	"sync"

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

// thompson is the automaton Compile builds and tabulates: the epsilon
// successors and consuming edges of every state, and the stack closeOver
// walks. It is scratch: only the tables tabulate derives outlive a compile,
// so builders come from builderPool and keep their rows' storage for the
// next one.
type thompson struct {
	eps   [][]int32
	step  [][]edge
	stack []int32
}

type edge struct {
	label graph.LabelID // deadLabel, wildLabel or a concrete label
	to    int32
}

var builderPool = sync.Pool{New: func() any { return new(thompson) }}

// Compile translates an expression to an NFA, resolving label names against
// the given table. Names the table has never seen compile to dead
// transitions (they cannot match any node), without mutating the table.
func Compile(e Expr, t *graph.LabelTable) *NFA { return compile(e, t, false) }

// compile builds e's automaton on a pooled builder, or with rev the
// automaton of e's reversal: L(rev) is the reversed words of L(e).
func compile(e Expr, t *graph.LabelTable, rev bool) *NFA {
	b := builderPool.Get().(*thompson)
	defer builderPool.Put(b)
	b.eps, b.step = b.eps[:0], b.step[:0]
	end := b.build(e, t, b.newState(), rev)
	return b.tabulate(end)
}

// newState adds a state with no edges, reusing the rows an earlier build
// left beyond the current length.
func (b *thompson) newState() int32 {
	b.eps = extend(b.eps)
	b.step = extend(b.step)
	return int32(len(b.step) - 1)
}

// extend appends an empty row to rows, keeping the storage of the row a
// previous build left in that slot.
func extend[T any](rows [][]T) [][]T {
	if n := len(rows); n < cap(rows) {
		rows = rows[:n+1]
		rows[n] = rows[n][:0]
		return rows
	}
	return append(rows, nil)
}

// build wires e between state from and a fresh exit state, which it returns.
// With rev it wires the reversal of e: a sequence takes its right operand
// first, and every other operator is its own mirror. States are numbered in
// the order a forward build of the mirrored expression numbers them.
func (b *thompson) build(e Expr, t *graph.LabelTable, from int32, rev bool) int32 {
	switch x := e.(type) {
	case Label:
		to := b.newState()
		l := t.Lookup(x.Name)
		if l == graph.InvalidLabel {
			l = deadLabel
		}
		b.step[from] = append(b.step[from], edge{label: l, to: to})
		return to
	case Wildcard:
		to := b.newState()
		b.step[from] = append(b.step[from], edge{label: wildLabel, to: to})
		return to
	case Seq:
		first, second := x.L, x.R
		if rev {
			first, second = second, first
		}
		mid := b.build(first, t, from, rev)
		return b.build(second, t, mid, rev)
	case Alt:
		lEnd := b.build(x.L, t, from, rev)
		rEnd := b.build(x.R, t, from, rev)
		to := b.newState()
		b.eps[lEnd] = append(b.eps[lEnd], to)
		b.eps[rEnd] = append(b.eps[rEnd], to)
		return to
	case Opt:
		end := b.build(x.X, t, from, rev)
		b.eps[from] = append(b.eps[from], end)
		return end
	case Star:
		// from -eps-> inner ... innerEnd -eps-> from ; exit at from.
		inner := b.newState()
		b.eps[from] = append(b.eps[from], inner)
		innerEnd := b.build(x.X, t, inner, rev)
		b.eps[innerEnd] = append(b.eps[innerEnd], inner)
		to := b.newState()
		b.eps[from] = append(b.eps[from], to)
		b.eps[innerEnd] = append(b.eps[innerEnd], to)
		return to
	}
	panic("rpe: unknown expression type")
}

// tabulate derives the transition tables of the automaton whose one
// accepting state is end.
func (b *thompson) tabulate(end int32) *NFA {
	states := len(b.step)
	w := (states + 63) / 64
	n := &NFA{words: w}
	edges := 0
	for _, es := range b.step {
		edges += len(es)
	}
	// One backing array: edge rows, then start, then final.
	table := make([]uint64, (edges+2)*w)
	n.target, n.start, n.final = table[:edges*w], table[edges*w:(edges+1)*w], table[(edges+1)*w:]
	n.first = make([]int32, states+1)
	n.label = make([]graph.LabelID, 0, edges)
	for q, es := range b.step {
		n.first[q] = int32(len(n.label))
		for _, e := range es {
			row := n.target[len(n.label)*w:][:w]
			n.label = append(n.label, e.label)
			b.closeOver(row, e.to)
		}
	}
	n.first[states] = int32(len(n.label))
	n.final[end>>6] |= 1 << (end & 63)
	b.closeOver(n.start, 0)
	return n
}

// closeOver ORs the epsilon closure of state q into set.
func (b *thompson) closeOver(set []uint64, q int32) {
	stack := append(b.stack[:0], q)
	set[q>>6] |= 1 << (q & 63)
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range b.eps[q] {
			if set[e>>6]&(1<<(e&63)) == 0 {
				set[e>>6] |= 1 << (e & 63)
				stack = append(stack, e)
			}
		}
	}
	b.stack = stack
}

// NumStates returns the number of NFA states.
func (n *NFA) NumStates() int { return len(n.first) - 1 }

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
