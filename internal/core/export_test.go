package core

import (
	"dkindex/internal/graph"
	"dkindex/internal/index"
)

// AddSubgraphByRebuild is AddSubgraph with the in-place graft and merge
// switched off: whatever the refined partition says, the index graph is
// materialised from it. It is the oracle the graft and merge are held equal
// to.
func (dk *DK) AddSubgraphByRebuild(docs ...index.Document) ([][]graph.NodeID, error) {
	return dk.addSubgraph(docs, true)
}

// SubIndex is the sub-index I_H of h alone under dk's requirements, as
// CheckDocument builds it, leaving dk as it is.
func (dk *DK) SubIndex(h index.Document) (*index.SubIndex, error) {
	sub, err := index.NewSubgraph(dk.IG.Data().Labels(), h)
	if err != nil {
		return nil, err
	}
	return new(refineScratch).subIndex(sub, dk.LabelReqs.Get), nil
}

// ReferenceLocalSimilarity is the map-based Algorithm 4 UpdateScratch's probe
// is held equal to (alg4ref_test.go).
func ReferenceLocalSimilarity(ig *index.IndexGraph, u, v graph.NodeID) (kN, levels int, capped bool) {
	return referenceLocalSimilarity(ig, u, v)
}
