package graph

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
		for _, c := range g.children.Row(int(cur.n)) {
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
