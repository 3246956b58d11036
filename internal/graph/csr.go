package graph

import (
	"fmt"
	"slices"
)

// CSR is the one flat form of a list of node lists (compressed sparse rows):
// the rows of all nodes concatenated into one flat edges array, indexed by a
// flat offsets array. Row(n) is edges[offsets[n]:offsets[n+1]].
//
// Refinement jobs snapshot one adjacency direction into a CSR up front
// (NewCSR) and read contiguous memory every round instead of chasing
// per-node slice headers; the offsets double as exact per-node scratch
// budgets (a node's signature can never exceed its degree), which is what
// lets the partition refiner run without per-node allocation. Whole graphs
// are built from their children rows (FromCSR), which Transpose turns into
// parents. A CSR is a snapshot: mutations to a source graph after the build
// are not reflected.
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

// MakeCSR returns a CSR of no rows with room for rows rows holding edges
// entries in all, to be filled in row order with Append and Close.
func MakeCSR(rows, edges int) CSR {
	return CSR{offsets: make([]int32, 1, rows+1), edges: make([]NodeID, 0, edges)}
}

// Append adds vs to the open row, the one after the rows Close closed.
func (c *CSR) Append(vs ...NodeID) { c.edges = append(c.edges, vs...) }

// Close closes the open row, and as many empty rows after it as it takes for
// c to hold n rows; it does nothing when c holds them already.
func (c *CSR) Close(n int) {
	for c.NumNodes() < n {
		c.offsets = append(c.offsets, int32(len(c.edges)))
	}
}

// Transpose returns the CSR whose row v lists, ascending, every u < numNodes
// whose row rows(u) holds v: the parents of a graph given its children. It is
// one counting sort, filled backwards so that every row comes out ascending.
// Every entry of every row must lie in [0, numNodes).
func Transpose(numNodes int, rows func(NodeID) []NodeID) CSR {
	off := make([]int32, numNodes+1)
	for u := range numNodes {
		for _, v := range rows(NodeID(u)) {
			off[v]++
		}
	}
	for v := range numNodes {
		off[v+1] += off[v] // off[numNodes] starts at 0, there being no node numNodes, and ends at the total
	}
	edges := make([]NodeID, off[numNodes])
	for u := numNodes - 1; u >= 0; u-- {
		for _, v := range rows(NodeID(u)) {
			off[v]--
			edges[off[v]] = NodeID(u)
		}
	}
	return CSR{off, edges}
}

// EdgeCSR returns the CSR of numNodes rows in which row u lists, ascending
// and once each, every v of an edge (u, v): a counting sort by source, then
// each row sorted and rid of repeats. Every endpoint must lie in
// [0, numNodes).
func EdgeCSR(numNodes int, edges [][2]NodeID) CSR {
	off := make([]int32, numNodes+1)
	for _, e := range edges {
		off[e[0]]++
	}
	for u := range numNodes {
		off[u+1] += off[u]
	}
	out := make([]NodeID, len(edges))
	for j := len(edges) - 1; j >= 0; j-- {
		e := edges[j]
		off[e[0]]--
		out[off[e[0]]] = e[1]
	}
	w := int32(0)
	for u := range numNodes {
		row := out[off[u]:off[u+1]]
		slices.Sort(row)
		off[u] = w
		w += int32(copy(out[w:], slices.Compact(row)))
	}
	off[numNodes] = w
	return CSR{off, out[:w]}
}

// NumNodes returns the number of rows.
func (c *CSR) NumNodes() int { return len(c.offsets) - 1 }

// NumEdges returns the total number of entries across all rows.
func (c *CSR) NumEdges() int { return len(c.edges) }

// Row returns node n's neighbor list, with no spare capacity. The slice
// aliases the snapshot's flat storage and must not be mutated.
func (c *CSR) Row(n NodeID) []NodeID {
	lo, hi := c.offsets[n], c.offsets[n+1]
	return c.edges[lo:hi:hi]
}

// RowBounds returns the [lo, hi) range of node n's row within the flat edge
// array — the refiner uses it to carve per-node scratch slots out of one
// arena allocation.
func (c *CSR) RowBounds(n NodeID) (lo, hi int32) { return c.offsets[n], c.offsets[n+1] }
