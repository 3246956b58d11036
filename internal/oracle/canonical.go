package oracle

import (
	"fmt"
	"slices"

	"dkindex/internal/graph"
	"dkindex/internal/index"
)

// Canonical renders an index graph blind to its node numbering: one line per
// index node, keyed by the least data node of its extent and listed in key
// order, with its label, local similarity and extent, and its children by
// key, each with the number of data edges of the data graph from the node's
// extent into the child's — the count IndexGraph.Validate holds the graph's
// own count to.
func Canonical(ig *index.IndexGraph) []string {
	key := func(n graph.NodeID) graph.NodeID { return ig.Extent(n)[0] }
	g := ig.Data()
	counts := make(map[[2]graph.NodeID]int)
	for u := range g.NumNodes() {
		for _, v := range g.Children(graph.NodeID(u)) {
			counts[[2]graph.NodeID{key(ig.IndexOf(graph.NodeID(u))), key(ig.IndexOf(v))}]++
		}
	}
	nodes := make([]graph.NodeID, ig.NumNodes())
	for n := range nodes {
		nodes[n] = graph.NodeID(n)
	}
	slices.SortFunc(nodes, func(a, b graph.NodeID) int { return int(key(a)) - int(key(b)) })
	out := make([]string, len(nodes))
	for i, n := range nodes {
		children := make([][2]graph.NodeID, 0, len(ig.Children(n)))
		for _, c := range ig.Children(n) {
			children = append(children, [2]graph.NodeID{key(c), graph.NodeID(counts[[2]graph.NodeID{key(n), key(c)}])})
		}
		slices.SortFunc(children, func(a, b [2]graph.NodeID) int { return int(a[0]) - int(b[0]) })
		out[i] = fmt.Sprintf("node %d: label %d k %d extent %v children (key, count) %v",
			key(n), ig.Label(n), ig.K(n), ig.Extent(n), children)
	}
	return out
}

// SameIndex compares two index graphs over equal data graphs through
// Canonical: it returns "" when they are one index up to node numbering, and
// otherwise the first node where they differ.
func SameIndex(got, want *index.IndexGraph) string {
	a, b := Canonical(got), Canonical(want)
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return fmt.Sprintf("%s\n  want %s", a[i], b[i])
		}
	}
	if len(a) != len(b) {
		return fmt.Sprintf("%d index nodes, want %d", len(a), len(b))
	}
	return ""
}
