package core

import (
	"dkindex/internal/graph"
	"dkindex/internal/index"
)

// AddSubgraphByRebuild is AddSubgraph with the graft switched off: whatever
// the refined partition says, the index graph is materialised from it. It is
// the oracle the graft is held equal to.
func (dk *DK) AddSubgraphByRebuild(h index.Document) ([]graph.NodeID, error) {
	return dk.addSubgraph(h, true)
}

// SubIndex is step 1 of AddSubgraph alone: the sub-index I_H it would graft
// h's nodes with, leaving dk as it is.
func (dk *DK) SubIndex(h index.Document) (*index.SubIndex, error) {
	sub, err := index.NewSubgraph(dk.IG.Data().Labels(), h)
	if err != nil {
		return nil, err
	}
	return new(refineScratch).subIndex(sub, dk.LabelReqs), nil
}

// ReferenceLocalSimilarity is the map-based Algorithm 4 UpdateScratch's probe
// is held equal to (alg4ref_test.go).
func ReferenceLocalSimilarity(ig *index.IndexGraph, u, v graph.NodeID) (kN, levels int, capped bool) {
	return referenceLocalSimilarity(ig, u, v)
}
