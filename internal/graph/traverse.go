package graph

import (
	"slices"
	"sync"
)

// BFS performs a breadth-first traversal from start following children edges,
// invoking visit for each node with its depth. Traversal of a node's subtree
// is pruned when visit returns false for it.
func (g *Graph) BFS(start NodeID, visit func(n NodeID, depth int) bool) {
	g.checkNode(start)
	seen := make(map[NodeID]bool, 64)
	type item struct {
		n NodeID
		d int
	}
	queue := []item{{start, 0}}
	seen[start] = true
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if !visit(cur.n, cur.d) {
			continue
		}
		for _, c := range g.children.At(int(cur.n)) {
			if !seen[c] {
				seen[c] = true
				queue = append(queue, item{c, cur.d + 1})
			}
		}
	}
}

// ReachableFrom returns the set of nodes reachable from start (inclusive)
// following children edges.
func (g *Graph) ReachableFrom(start NodeID) map[NodeID]bool {
	out := make(map[NodeID]bool)
	g.BFS(start, func(n NodeID, _ int) bool {
		out[n] = true
		return true
	})
	return out
}

// MaxDepth returns the greatest BFS depth (shortest-path distance) of any
// node reachable from the root. It returns 0 for graphs without a root.
// Because distances are shortest paths, this is a lower bound on the length
// of the longest simple path, which is what matters for choosing k budgets.
func (g *Graph) MaxDepth() int {
	if g.root == InvalidNode {
		return 0
	}
	max := 0
	g.BFS(g.root, func(_ NodeID, d int) bool {
		if d > max {
			max = d
		}
		return true
	})
	return max
}

// LabelPathMatchesNode reports whether the label path labels (outermost
// first) matches node n, i.e. whether some node path n_1..n_p ending in n has
// label(n_i) == labels[i] for all i (paper Section 3). visited, when non-nil,
// receives every data node inspected during the backward search; the paper's
// cost model charges these during validation.
//
// The search walks parent edges backwards from n with memoization on
// (node, position) pairs so it runs in O(positions * edges) worst case.
//
// It is safe to call concurrently (the memo table is drawn from a pool), so
// validation of one extent can be spread across CPUs.
func (g *Graph) LabelPathMatchesNode(labels []LabelID, n NodeID, visited func(NodeID)) bool {
	if len(labels) == 0 {
		return true
	}
	g.checkNode(n)
	sc := matchScratchPool.Get().(*matchScratch)
	defer func() {
		clear(sc.memo)
		matchScratchPool.Put(sc)
	}()
	memo := sc.memo
	var match func(n NodeID, pos int) bool
	match = func(n NodeID, pos int) bool {
		if visited != nil {
			visited(n)
		}
		if g.nodeLabel.At(int(n)) != labels[pos] {
			return false
		}
		if pos == 0 {
			return true
		}
		k := matchKey{n, pos}
		if v, ok := memo[k]; ok {
			return v
		}
		// Mark in-progress as false to cut cycles: a node path may not make
		// progress by revisiting the same (node, position) pair.
		memo[k] = false
		res := false
		for _, p := range g.parents.At(int(n)) {
			if match(p, pos-1) {
				res = true
				break
			}
		}
		memo[k] = res
		return res
	}
	return match(n, len(labels)-1)
}

// matchKey indexes LabelPathMatchesNode's memo table.
type matchKey struct {
	n   NodeID
	pos int
}

// matchScratch pools the validation memo table so per-member validation does
// not allocate a map per call.
type matchScratch struct {
	memo map[matchKey]bool
}

var matchScratchPool = sync.Pool{
	New: func() any { return &matchScratch{memo: make(map[matchKey]bool, 64)} },
}

// evalScratch pools the dense frontier buffers of EvalLabelPath.
type evalScratch struct {
	seen VisitSet
	a, b []NodeID
}

var evalScratchPool = sync.Pool{New: func() any { return new(evalScratch) }}

// EvalLabelPath evaluates the simple label path (a sequence of labels,
// outermost first) directly on the data graph and returns the matching nodes
// in ascending order. A node matches if some node path ending in it matches
// the label path; node paths may start anywhere (partial-match semantics, as
// in the paper's examples). visited, when non-nil, receives every node
// expansion performed, mirroring the cost model used on index graphs.
func (g *Graph) EvalLabelPath(labels []LabelID, visited func(NodeID)) []NodeID {
	if len(labels) == 0 {
		return nil
	}
	// Position 0 seeds from the label posting list — O(|matches|), not O(n).
	// Frontiers are dense slices deduplicated by an epoch-stamped visit set;
	// the buffers come from a pool so repeated queries do not allocate. The
	// cost model is unchanged: exactly the nodes the map-based evaluator
	// charged are charged here, in the same canonical (ascending-seed) order.
	sc := evalScratchPool.Get().(*evalScratch)
	cur, next := sc.a[:0], sc.b[:0]
	for _, n := range g.NodesWithLabel(labels[0]) {
		cur = append(cur, n)
		if visited != nil {
			visited(n)
		}
	}
	for pos := 1; pos < len(labels) && len(cur) > 0; pos++ {
		sc.seen.Reset(g.NumNodes())
		next = next[:0]
		want := labels[pos]
		for _, n := range cur {
			for _, c := range g.children.At(int(n)) {
				if g.nodeLabel.At(int(c)) == want && sc.seen.Add(c) {
					next = append(next, c)
					if visited != nil {
						visited(c)
					}
				}
			}
		}
		cur, next = next, cur
	}
	var out []NodeID
	if len(cur) > 0 {
		out = append([]NodeID(nil), cur...)
		slices.Sort(out)
	}
	sc.a, sc.b = cur, next
	evalScratchPool.Put(sc)
	return out
}
