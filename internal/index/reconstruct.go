package index

import (
	"fmt"
	"slices"

	"dkindex/internal/graph"
	"dkindex/internal/nodeset"
)

// Reconstruct rebuilds an IndexGraph from its persisted parts: the data
// graph, the extents (which must partition the data nodes into
// label-homogeneous groups) and the per-node local similarities. Index
// adjacency is re-derived from the data edges. It validates the inputs and
// is the loading half of the on-disk codec.
func Reconstruct(data *graph.Graph, extents [][]graph.NodeID, ks []int) (*IndexGraph, error) {
	if len(extents) != len(ks) {
		return nil, fmt.Errorf("index: %d extents but %d similarities", len(extents), len(ks))
	}
	ig := newIndexGraph(data, len(extents))
	seen := make([]bool, data.NumNodes())
	for b, ext := range extents {
		if len(ext) == 0 {
			return nil, fmt.Errorf("index: empty extent %d", b)
		}
		cp := append([]graph.NodeID(nil), ext...)
		slices.Sort(cp)
		label := data.Label(cp[0])
		*ig.labels.Mut(nil, b) = label
		*ig.k.Mut(nil, b) = ks[b]
		ig.appendPosting(label, graph.NodeID(b))
		for _, d := range cp {
			if d < 0 || int(d) >= data.NumNodes() {
				return nil, fmt.Errorf("index: extent %d references node %d out of range", b, d)
			}
			if seen[d] {
				return nil, fmt.Errorf("index: data node %d in two extents", d)
			}
			if data.Label(d) != label {
				return nil, fmt.Errorf("index: extent %d mixes labels", b)
			}
			seen[d] = true
			*ig.nodeOf.Mut(nil, int(d)) = graph.NodeID(b)
		}
		// Encode after validation: FromSorted requires the strictly
		// ascending, duplicate-free input the checks above establish.
		*ig.extents.Mut(nil, b) = nodeset.FromSorted(cp)
	}
	for d, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("index: data node %d not covered", d)
		}
	}
	ig.deriveEdges()
	return ig, nil
}
