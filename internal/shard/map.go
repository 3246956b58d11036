// Package shard scatter-gathers one logical D(k)-index over N in-memory
// shards. Nothing serves it: dkserve and the /v1 server run one
// *dkindex.Index, and the package is kept only for the benchmark module's
// fan-out probe (benchmark/probes.go:probeShard) and the two guarded
// benchmarks beside it. DESIGN.md's "Sharding (retired)" says what the
// served engine was and what would bring it back.
//
// The unit of partitioning is the document: every MutAddDocument is assigned
// to one shard round-robin, and because a document's reference edges resolve
// within the document, a shard never needs another shard's data to answer a
// query over its slice (the per-vertex locality argument of the parallel
// structural-summaries line of work). Each shard is a complete dkindex.Index
// — private snapshots, D(k) requirements, result cache — and the Engine
// scatter-gathers queries across them, merging the per-shard sorted results
// into the exact answer the monolithic index would produce.
//
// Node ids are global: the Engine numbers data nodes exactly as a monolithic
// index receiving the same documents in the same order would (root = 0,
// document j's grafted nodes contiguous after document j-1's), so results,
// edge mutations and document mappings are interchangeable with the
// unsharded facade. The Map records which shard owns each document and how
// many nodes it grafted; that is enough to translate ids in both directions.
//
// The Engine's surface is Run for reads and ApplyBatch for writes. Documents
// and edges route to one shard; every other mutation is rejected in place.
package shard

import (
	"fmt"
	"sort"

	"dkindex/internal/graph"
)

// docRec records one committed document: the shard that owns it and how many
// data nodes it grafted (its parsed node count minus the root, which is
// identified with every shard's local root).
type docRec struct {
	Shard int
	Nodes int
}

// Map is an immutable routing table over the documents committed so far.
// Mutations build a successor with append and publish it atomically, so
// queries translate ids against one consistent view with no locking.
type Map struct {
	shards int
	docs   []docRec

	// gbase[j] is the first global id of document j's grafted run; the runs
	// are contiguous and follow the global root at id 0.
	gbase []graph.NodeID
	// byShard[s] lists the documents shard s owns, in graft order, and
	// lbase[s][i] is the first shard-local id of byShard[s][i]'s run. Local
	// id 0 is the shard's own root; runs follow in graft order, mirroring
	// what s's Index assigned them — and because owned documents are grafted
	// in global order too, local order implies global order, which is what
	// lets the router merge translated per-shard results without re-sorting.
	byShard [][]int
	lbase   [][]graph.NodeID
	// counts[s] is shard s's data node count (local root included) as of
	// this map; the merge drops locals a racing commit published past it.
	counts []int
	total  int
}

// newMap derives the translation tables from the document records.
func newMap(shards int, docs []docRec) (*Map, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("shard: shard count must be positive, got %d", shards)
	}
	m := &Map{
		shards:  shards,
		docs:    docs,
		gbase:   make([]graph.NodeID, len(docs)),
		byShard: make([][]int, shards),
		lbase:   make([][]graph.NodeID, shards),
		counts:  make([]int, shards),
		total:   1,
	}
	for s := range m.counts {
		m.counts[s] = 1 // the shard's local root
	}
	for j, d := range docs {
		if d.Shard < 0 || d.Shard >= shards {
			return nil, fmt.Errorf("shard: document %d assigned to shard %d of %d", j, d.Shard, shards)
		}
		if d.Nodes < 0 {
			return nil, fmt.Errorf("shard: document %d has negative node count", j)
		}
		m.gbase[j] = graph.NodeID(m.total)
		m.byShard[d.Shard] = append(m.byShard[d.Shard], j)
		m.lbase[d.Shard] = append(m.lbase[d.Shard], graph.NodeID(m.counts[d.Shard]))
		m.counts[d.Shard] += d.Nodes
		m.total += d.Nodes
	}
	return m, nil
}

// append returns the successor map with the given documents committed.
func (m *Map) append(recs ...docRec) (*Map, error) {
	docs := make([]docRec, 0, len(m.docs)+len(recs))
	docs = append(docs, m.docs...)
	docs = append(docs, recs...)
	return newMap(m.shards, docs)
}

// NumShards returns the configured shard count.
func (m *Map) NumShards() int { return m.shards }

// NumDocs returns how many documents have been committed.
func (m *Map) NumDocs() int { return len(m.docs) }

// NumNodes returns the global data node count (root included), equal to what
// the monolithic index would hold.
func (m *Map) NumNodes() int { return m.total }

// ShardNodes returns shard s's data node count as of this map (local root
// included).
func (m *Map) ShardNodes(s int) int { return m.counts[s] }

// NextShard returns the shard the next document will be assigned to: plain
// round-robin over committed documents, so the assignment is deterministic.
func (m *Map) NextShard() int { return len(m.docs) % m.shards }

// ToGlobal translates a shard-local data node id to its global id. Local id
// 0 (the shard's root) translates to the global root.
func (m *Map) ToGlobal(s int, local graph.NodeID) (graph.NodeID, bool) {
	if local == 0 {
		return 0, true
	}
	lb := m.lbase[s]
	i := sort.Search(len(lb), func(i int) bool { return lb[i] > local }) - 1
	if i < 0 {
		return 0, false
	}
	doc := m.byShard[s][i]
	off := local - lb[i]
	if int(off) >= m.docs[doc].Nodes {
		return 0, false
	}
	return m.gbase[doc] + off, true
}

// Locate translates a global data node id to its owning shard and the
// shard-local id. The global root belongs to every shard; it reports shard
// -1 and local id 0 (every shard's root is local id 0).
func (m *Map) Locate(global graph.NodeID) (shard int, local graph.NodeID, ok bool) {
	if global == 0 {
		return -1, 0, true
	}
	if global < 0 || int(global) >= m.total {
		return 0, 0, false
	}
	j := sort.Search(len(m.gbase), func(j int) bool { return m.gbase[j] > global }) - 1
	d := m.docs[j]
	s := d.Shard
	// The doc's position among its shard's docs gives the local base.
	i := sort.Search(len(m.byShard[s]), func(i int) bool { return m.byShard[s][i] >= j })
	return s, m.lbase[s][i] + (global - m.gbase[j]), true
}

// AppendGlobal translates a sorted slice of shard-local ids (the shard's
// root excluded) to global ids, appending to dst. Owned documents appear in
// the same relative order locally and globally, so the output is sorted.
func (m *Map) AppendGlobal(dst []graph.NodeID, s int, locals []graph.NodeID) []graph.NodeID {
	lb, by := m.lbase[s], m.byShard[s]
	i := 0
	for _, l := range locals {
		for i+1 < len(lb) && lb[i+1] <= l {
			i++
		}
		dst = append(dst, m.gbase[by[i]]+(l-lb[i]))
	}
	return dst
}
