package rpe

import (
	"math/bits"
	"sync"

	"dkindex/internal/graph"
	"dkindex/internal/nodeset"
	"dkindex/internal/obs"
)

// Source is the graph view expression evaluation needs. Both the data graph
// and index graphs satisfy it.
type Source interface {
	NumNodes() int
	Label(n graph.NodeID) graph.LabelID
	Children(n graph.NodeID) []graph.NodeID
	Parents(n graph.NodeID) []graph.NodeID
}

// labelIndexed is the optional posting-list view of a Source: when provided
// (data graphs do), evaluation seeds from per-label node lists instead of
// probing the automaton once per node.
type labelIndexed interface {
	NodesWithLabel(l graph.LabelID) []graph.NodeID
	NumLabels() int
}

// postingIndexed is the succinct posting-list view index graphs provide:
// seeding then walks each label's compressed set without materializing it.
type postingIndexed interface {
	PostingSet(l graph.LabelID) nodeset.Set
	NumLabels() int
}

// Compiled is a ready-to-evaluate expression: the forward automaton, its
// reversal (for per-node validation walking parent edges), and the longest
// word bound.
type Compiled struct {
	Expr Expr
	// MaxLen is the longest word length the expression matches, -1 if
	// unbounded. An index node m is sound for the whole expression when
	// MaxLen >= 0 and MaxLen-1 <= k(m).
	MaxLen int

	fwd *NFA
	rev *NFA
}

// CompileExpr compiles e against a label table.
func CompileExpr(e Expr, t *graph.LabelTable) *Compiled {
	return &Compiled{
		Expr:   e,
		MaxLen: MaxWordLen(e),
		fwd:    Compile(e, t),
		rev:    Compile(reverseExpr(e), t),
	}
}

// reverseExpr mirrors an expression so that L(rev) = reversed L(e).
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

// Eval returns all nodes of g matched by the expression: nodes n such that
// some node path ending in n spells a word of the language. Matching uses a
// worklist fixpoint over (node, NFA-state) reachability, so cyclic graphs
// and starred expressions terminate. visited, when non-nil, receives one
// call per node expansion (the paper's cost unit).
//
// Words of length zero are ignored: an expression that accepts only the
// empty word matches nothing.
//
// Seeding exploits that the start transition depends only on a node's label:
// the successor set is computed once per label and the seed nodes come from
// the source's posting lists when it provides them. Seeds enter the worklist
// in ascending node order — exactly the order of the per-node probe loop —
// so the FIFO fixpoint performs the identical sequence of expansions and the
// visited charges are unchanged.
func (c *Compiled) Eval(g Source, visited func(graph.NodeID)) []graph.NodeID {
	return c.EvalTraced(g, visited, nil)
}

// evalScratch pools EvalTraced's working state: every node's state set in
// one flat table, the worklist ring and its membership flags. A node is
// queued at most once at a time, so a ring of NumNodes slots never overflows.
type evalScratch struct {
	states []uint64
	queued []bool
	ring   []graph.NodeID
	delta  []uint64
}

var evalScratchPool = sync.Pool{New: func() any { return new(evalScratch) }}

// zeroed returns buf resized to n zero elements, reusing its storage when it
// is large enough.
func zeroed[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// EvalTraced is Eval with per-stage tracing: posting-list seeding records an
// "rpe_seed" span and the worklist fixpoint (plus accept collection) an
// "rpe_fixpoint" span. A nil trace makes both free — StageStart skips the
// clock read — and the visited charges are identical either way.
func (c *Compiled) EvalTraced(g Source, visited func(graph.NodeID), tr *obs.Trace) []graph.NodeID {
	a := c.fwd
	n, w := g.NumNodes(), a.words
	sc := evalScratchPool.Get().(*evalScratch)
	defer evalScratchPool.Put(sc)
	sc.states = zeroed(sc.states, n*w)
	sc.queued = zeroed(sc.queued, n)
	sc.delta = zeroed(sc.delta, w)
	if cap(sc.ring) < n {
		sc.ring = make([]graph.NodeID, n)
	}
	states, queued, delta, ring := sc.states, sc.queued, sc.delta, sc.ring[:n]
	of := func(id graph.NodeID) []uint64 { return states[int(id)*w:][:w] }

	st := tr.StageStart()
	// Assign seed states label by label (every node with one label starts in
	// the same set), then queue the seeded nodes in one ascending scan over
	// the state table.
	switch src := g.(type) {
	case postingIndexed:
		for l := 0; l < src.NumLabels(); l++ {
			post := src.PostingSet(graph.LabelID(l))
			if post.IsEmpty() || !a.stepSet(delta, a.start, graph.LabelID(l)) {
				continue
			}
			post.Iterate(func(id graph.NodeID) bool {
				copy(of(id), delta)
				return true
			})
		}
	case labelIndexed:
		for l := 0; l < src.NumLabels(); l++ {
			nodes := src.NodesWithLabel(graph.LabelID(l))
			if len(nodes) == 0 || !a.stepSet(delta, a.start, graph.LabelID(l)) {
				continue
			}
			for _, id := range nodes {
				copy(of(id), delta)
			}
		}
	default:
		for i := 0; i < n; i++ {
			a.stepSet(of(graph.NodeID(i)), a.start, g.Label(graph.NodeID(i)))
		}
	}
	head, tail, pending := 0, 0, 0
	push := func(id graph.NodeID) {
		queued[id] = true
		ring[tail] = id
		if tail++; tail == n {
			tail = 0
		}
		pending++
	}
	for i := 0; i < n; i++ {
		if anySet(of(graph.NodeID(i))) {
			push(graph.NodeID(i))
		}
	}
	tr.EndStage("rpe_seed", st)
	st = tr.StageStart()
	for pending > 0 {
		cur := ring[head]
		if head++; head == n {
			head = 0
		}
		pending--
		queued[cur] = false
		if visited != nil {
			visited(cur)
		}
		from := of(cur)
		for _, ch := range g.Children(cur) {
			if !a.stepSet(delta, from, g.Label(ch)) {
				continue
			}
			if orInto(of(ch), delta) && !queued[ch] {
				push(ch)
			}
		}
	}

	matched := 0
	for i := 0; i < n; i++ {
		if a.anyFinal(of(graph.NodeID(i))) {
			matched++
		}
	}
	var out []graph.NodeID
	if matched > 0 {
		out = make([]graph.NodeID, 0, matched)
		for i := 0; i < n; i++ {
			if a.anyFinal(of(graph.NodeID(i))) {
				out = append(out, graph.NodeID(i))
			}
		}
	}
	tr.EndStage("rpe_fixpoint", st)
	return out
}

// anySet reports whether set has a bit set.
func anySet(set []uint64) bool {
	for _, word := range set {
		if word != 0 {
			return true
		}
	}
	return false
}

// orInto ORs delta into dst, reporting whether dst grew.
func orInto(dst, delta []uint64) bool {
	grew := false
	for i, d := range delta {
		if d&^dst[i] != 0 {
			dst[i] |= d
			grew = true
		}
	}
	return grew
}

// pair is one (node, reversed-NFA-state) item of MatchesNode's BFS.
type pair struct {
	n graph.NodeID
	q int32
}

// matchScratch pools MatchesNode's working state so validating an extent
// member does not allocate; each concurrent validation draws its own. What
// it holds grows with the nodes one backward search touches, never with the
// size of the graph: the touched nodes are numbered densely through an
// epoch-stamped open-addressing table, and each numbered node owns one
// `charged` flag and one bitset of the states it has been queued in.
type matchScratch struct {
	// slots[i] is epoch<<32 | entry for an occupied slot; any other epoch
	// means empty, so forgetting every node is one increment.
	slots []uint64
	shift uint32
	epoch uint32
	// nodes[e] is the node numbered e; seen[e*words:] its queued states.
	nodes   []graph.NodeID
	charged []bool
	seen    []uint64
	queue   []pair
	next    []uint64
}

var matchScratchPool = sync.Pool{New: func() any { return new(matchScratch) }}

func (sc *matchScratch) reset(words int) {
	sc.nodes, sc.charged, sc.seen, sc.queue = sc.nodes[:0], sc.charged[:0], sc.seen[:0], sc.queue[:0]
	sc.next = zeroed(sc.next, words)
	if sc.epoch++; sc.epoch == 0 { // stamp wrap-around: old stamps become ambiguous, wipe
		clear(sc.slots)
		sc.epoch = 1
	}
}

// entry returns the dense number of node n, numbering it on first sight.
func (sc *matchScratch) entry(n graph.NodeID, words int) int {
	if 2*len(sc.nodes) >= len(sc.slots) {
		sc.grow()
	}
	e, fresh := sc.probe(n, len(sc.nodes))
	if fresh {
		sc.nodes = append(sc.nodes, n)
		sc.charged = append(sc.charged, false)
		sc.seen = append(sc.seen, make([]uint64, words)...)
	}
	return e
}

// probe finds n's slot, claiming an empty one for entry number next.
func (sc *matchScratch) probe(n graph.NodeID, next int) (e int, fresh bool) {
	mask := uint32(len(sc.slots) - 1)
	for i := uint32(n) * 0x9E3779B1 >> sc.shift; ; i = (i + 1) & mask {
		s := sc.slots[i]
		if uint32(s>>32) != sc.epoch {
			sc.slots[i] = uint64(sc.epoch)<<32 | uint64(next)
			return next, true
		}
		if e := int(uint32(s)); sc.nodes[e] == n {
			return e, false
		}
	}
}

// grow doubles the slot table and re-seats the numbered nodes.
func (sc *matchScratch) grow() {
	size := max(64, 2*len(sc.slots))
	sc.slots = make([]uint64, size)
	sc.shift = uint32(32 - bits.TrailingZeros(uint(size)))
	for e, n := range sc.nodes {
		sc.probe(n, e)
	}
}

// MatchesNode reports whether the expression matches the specific node:
// whether some node path ending at it spells an accepted word. It walks
// parent edges from the node, running the reversed automaton, with
// memoization over (node, state) pairs — this is the validation primitive
// for index results. visited, when non-nil, receives each node inspected.
//
// It is safe to call concurrently (working state is drawn from a pool), so
// validation of one extent can be spread across CPUs.
func (c *Compiled) MatchesNode(g Source, node graph.NodeID, visited func(graph.NodeID)) bool {
	// BFS over (node, reversed-NFA-state) pairs: polynomial in
	// |nodes| x |states| even on cyclic graphs with starred expressions.
	a := c.rev
	w := a.words
	sc := matchScratchPool.Get().(*matchScratch)
	defer matchScratchPool.Put(sc)
	sc.reset(w)
	visit := func(n graph.NodeID) {
		if visited == nil {
			return
		}
		if e := sc.entry(n, w); !sc.charged[e] {
			sc.charged[e] = true
			visited(n)
		}
	}
	// enqueue queues the states of set not yet queued at n, in ascending
	// state order, unless set accepts.
	enqueue := func(n graph.NodeID, set []uint64) bool {
		if a.anyFinal(set) {
			return true
		}
		seen := sc.seen[sc.entry(n, w)*w:][:w]
		for i, word := range set {
			fresh := word &^ seen[i]
			seen[i] |= fresh
			for ; fresh != 0; fresh &= fresh - 1 {
				sc.queue = append(sc.queue, pair{n, int32(i<<6 + bits.TrailingZeros64(fresh))})
			}
		}
		return false
	}

	visit(node)
	next := sc.next
	if !a.stepSet(next, a.start, g.Label(node)) {
		return false
	}
	if enqueue(node, next) {
		return true
	}
	for head := 0; head < len(sc.queue); head++ {
		cur := sc.queue[head]
		visit(cur.n)
		for _, p := range g.Parents(cur.n) {
			clear(next)
			if !a.stepState(next, int(cur.q), g.Label(p)) {
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
