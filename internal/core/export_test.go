package core

import "dkindex/internal/graph"

// AddSubgraphByRebuild is AddSubgraph with the graft switched off: whatever
// the refined partition says, the index graph is materialised from it. It is
// the oracle the graft is held equal to.
func (dk *DK) AddSubgraphByRebuild(h *graph.Graph) ([]graph.NodeID, error) {
	return dk.addSubgraph(h, true)
}
