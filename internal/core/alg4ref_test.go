package core

import (
	"encoding/binary"

	"dkindex/internal/graph"
	"dkindex/internal/index"
)

// referenceLocalSimilarity is Algorithm 4 as the paper states it, over maps:
// label paths are keyed by their encoded label sequence and each maps to the
// set of index nodes its occurrences start at (the paper's S and S' sets).
// It is the oracle UpdateScratch's probe is held equal to. Beside k_N it
// reports how many levels the probe extended and whether it stopped at
// maxTrackedPaths, so a test can show which branches it reached.
func referenceLocalSimilarity(ig *index.IndexGraph, u, v graph.NodeID) (kN, levels int, capped bool) {
	upbound := ig.K(u) + 1
	if kv := ig.K(v); kv < upbound {
		upbound = kv
	}
	if upbound > maxProbedSimilarity {
		upbound = maxProbedSimilarity
	}
	if upbound <= 0 {
		return 0, 0, false
	}
	newSet := map[string]map[graph.NodeID]bool{
		refEncode(nil, ig.Label(u)): {u: true},
	}
	oldSet := make(map[string]map[graph.NodeID]bool)
	for _, p := range ig.Parents(v) {
		refAdd(oldSet, refEncode(nil, ig.Label(p)), p)
	}
	for kN < upbound {
		for key := range newSet {
			if _, ok := oldSet[key]; !ok {
				return kN, levels, false
			}
		}
		kN++
		if kN == upbound {
			return kN, levels, false
		}
		levels++
		nextOld := make(map[string]map[graph.NodeID]bool)
		for key := range newSet {
			for w := range oldSet[key] {
				for _, x := range ig.Parents(w) {
					refAdd(nextOld, refEncode([]byte(key), ig.Label(x)), x)
				}
			}
		}
		nextNew := make(map[string]map[graph.NodeID]bool)
		for key, occ := range newSet {
			for w := range occ {
				for _, x := range ig.Parents(w) {
					refAdd(nextNew, refEncode([]byte(key), ig.Label(x)), x)
				}
			}
		}
		if len(nextNew) == 0 {
			return upbound, levels, false
		}
		if len(nextNew) > maxTrackedPaths || len(nextOld) > maxTrackedPaths {
			return kN, levels, true
		}
		newSet, oldSet = nextNew, nextOld
	}
	return kN, levels, false
}

func refAdd(set map[string]map[graph.NodeID]bool, key string, n graph.NodeID) {
	occ, ok := set[key]
	if !ok {
		occ = make(map[graph.NodeID]bool)
		set[key] = occ
	}
	occ[n] = true
}

// refEncode prepends label l to the encoded path suffix.
func refEncode(suffix []byte, l graph.LabelID) string {
	var buf [4]byte
	binary.BigEndian.PutUint32(buf[:], uint32(l))
	return string(buf[:]) + string(suffix)
}
