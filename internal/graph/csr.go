package graph

import (
	"fmt"
	"slices"
)

// CSR is a compressed-sparse-row snapshot of one adjacency direction: the
// neighbor lists of all nodes concatenated into one flat edges array, indexed
// by a flat offsets array. Row(n) is edges[offsets[n]:offsets[n+1]].
//
// Refinement jobs build one CSR per direction up front and read contiguous
// memory every round instead of chasing per-node slice headers; the offsets
// double as exact per-node scratch budgets (a node's signature can never
// exceed its degree), which is what lets the partition refiner run without
// per-node allocation. A CSR is an immutable snapshot: mutations to the
// source graph after the build are not reflected.
type CSR struct {
	offsets []int32
	edges   []NodeID
}

// NewCSR snapshots an adjacency direction into CSR form: neighbors(n) must
// return the neighbor list of node n for 0 <= n < numNodes. Neighbor order is
// preserved. It panics if the graph holds more than 2^31-1 edges (offsets are
// int32 by design — half the footprint of int64 on the build hot path).
func NewCSR(numNodes int, neighbors func(NodeID) []NodeID) *CSR {
	c := new(CSR)
	c.Reset(numNodes, neighbors)
	return c
}

// Reset re-snapshots c over another adjacency, as NewCSR would, reusing its
// arrays where they are large enough. Rows handed out before are invalid.
func (c *CSR) Reset(numNodes int, neighbors func(NodeID) []NodeID) {
	c.offsets = slices.Grow(c.offsets[:0], numNodes+1)[:numNodes+1]
	c.offsets[0] = 0
	total := 0
	for i := 0; i < numNodes; i++ {
		total += len(neighbors(NodeID(i)))
		if total > int(^uint32(0)>>1) {
			panic(fmt.Sprintf("graph: CSR overflow: more than %d edges", int(^uint32(0)>>1)))
		}
		c.offsets[i+1] = int32(total)
	}
	c.edges = slices.Grow(c.edges[:0], total)[:total]
	for i := 0; i < numNodes; i++ {
		copy(c.edges[c.offsets[i]:c.offsets[i+1]], neighbors(NodeID(i)))
	}
}

// NumNodes returns the number of nodes the snapshot covers.
func (c *CSR) NumNodes() int { return len(c.offsets) - 1 }

// NumEdges returns the total number of entries across all rows.
func (c *CSR) NumEdges() int { return len(c.edges) }

// Row returns node n's neighbor list. The slice aliases the snapshot's flat
// storage and must not be mutated.
func (c *CSR) Row(n NodeID) []NodeID { return c.edges[c.offsets[n]:c.offsets[n+1]] }

// Degree returns len(Row(n)) without materializing the slice header.
func (c *CSR) Degree(n NodeID) int { return int(c.offsets[n+1] - c.offsets[n]) }

// RowBounds returns the [lo, hi) range of node n's row within the flat edge
// array — the refiner uses it to carve per-node scratch slots out of one
// arena allocation.
func (c *CSR) RowBounds(n NodeID) (lo, hi int32) { return c.offsets[n], c.offsets[n+1] }

// ParentCSR snapshots the graph's parent (incoming) adjacency. Rows are in
// the same ascending order Parents maintains.
func (g *Graph) ParentCSR() *CSR { return NewCSR(g.NumNodes(), g.Parents) }

// ChildCSR snapshots the graph's child (outgoing) adjacency.
func (g *Graph) ChildCSR() *CSR { return NewCSR(g.NumNodes(), g.Children) }
