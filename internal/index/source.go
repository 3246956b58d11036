// Package index implements structural summaries (index graphs) for labeled
// data graphs: the label-split graph, the 1-index of Milo & Suciu, and the
// A(k)-index of Kaushik et al. The adaptive D(k)-index, which generalizes
// all three, builds on this package and lives in internal/core.
//
// An index graph I_G groups the data nodes of G into extents, one per index
// node, and has an edge A -> B whenever some data edge connects a node in
// extent(A) to a node in extent(B). Every index graph in this package is
// *safe* in the paper's sense: each label path that matches a data node also
// matches its index node, so index results always contain the true results.
package index

import (
	"fmt"

	"dkindex/internal/graph"
	"dkindex/internal/partition"
)

// Source abstracts the graph an index is built from. Building from the data
// graph itself is the common case; building from an existing index graph
// (whose nodes carry extents) is how subgraph addition (Algorithm 3) and the
// demoting process reuse construction, justified by the paper's Theorem 2.
type Source interface {
	partition.Labeled
	Children(n graph.NodeID) []graph.NodeID
	// AppendExtent appends the data nodes represented by source node n to
	// dst and returns the extended slice. Implementations never retain dst
	// and never hand out internal storage: callers own the result and may
	// mutate it freely (IndexGraph decompresses its succinct extent sets,
	// DataSource appends the node itself, GraftSource offsets the sub-index's
	// extents to the ids the document received).
	AppendExtent(dst []graph.NodeID, n graph.NodeID) []graph.NodeID
	// Data returns the underlying data graph that extents refer to.
	Data() *graph.Graph
}

// DataSource adapts a plain data graph to Source: every node represents
// itself.
type DataSource struct {
	G *graph.Graph
}

// NumNodes implements Source.
func (s DataSource) NumNodes() int { return s.G.NumNodes() }

// Label implements Source.
func (s DataSource) Label(n graph.NodeID) graph.LabelID { return s.G.Label(n) }

// Parents implements Source.
func (s DataSource) Parents(n graph.NodeID) []graph.NodeID { return s.G.Parents(n) }

// Children implements Source.
func (s DataSource) Children(n graph.NodeID) []graph.NodeID { return s.G.Children(n) }

// AppendExtent implements Source: a data node's extent is itself.
func (s DataSource) AppendExtent(dst []graph.NodeID, n graph.NodeID) []graph.NodeID {
	return append(dst, n)
}

// Data implements Source.
func (s DataSource) Data() *graph.Graph { return s.G }

// GraftSource presents an index I_G with a document's sub-index I_H grafted
// under its root class as one construction source: the combination Algorithm
// 3 (and the A(k) quotient baseline) treats as a data graph. Source node ids
// are [0, Base) = I_G's nodes, unchanged, then I_H's nodes except its root
// class, whose children re-parent to I_G's root class.
//
// I_H's members are document nodes: node 0 is the root and node i >= 1
// became data node firstNew+i-1 of I_G's data graph (Subgraph.AddTo), so
// grafted extents translate by an offset and stay ascending.
type GraftSource struct {
	ig             *IndexGraph
	ih             *SubIndex
	base           int
	ihRoot, igRoot graph.NodeID
	firstNew       graph.NodeID
	// rootChildren is I_G's root class's child list with I_H's top-level
	// classes appended; parents[j] and children[j] are those of source node
	// base+j. Translated once, at construction, so Parents and Children
	// allocate nothing per call.
	rootChildren      []graph.NodeID
	parents, children [][]graph.NodeID
}

// NewGraftSource fails when I_H's root class is not the document root alone
// (a document node that carries the ROOT label and was not split from it):
// such a document cannot be identified with I_G's root. It reads both indexes
// and writes neither, so callers may check a document before grafting it.
func NewGraftSource(ig *IndexGraph, ih *SubIndex, firstNew graph.NodeID) (*GraftSource, error) {
	ihRoot := ih.Root()
	if len(ih.Members(ihRoot)) != 1 {
		return nil, fmt.Errorf("index: sub-index root class is not a singleton")
	}
	c := &GraftSource{
		ig:       ig,
		ih:       ih,
		base:     ig.NumNodes(),
		ihRoot:   ihRoot,
		igRoot:   ig.IndexOf(ig.Data().Root()),
		firstNew: firstNew,
	}
	total := len(ig.Children(c.igRoot)) + len(ih.Children(ihRoot))
	for j := 0; j < ih.NumNodes(); j++ {
		if n := graph.NodeID(j); n != ihRoot {
			total += len(ih.Parents(n)) + len(ih.Children(n))
		}
	}
	flat := make([]graph.NodeID, 0, total)
	// carve appends the translation of an I_H adjacency list to flat and
	// returns the capacity-clipped run. ihRoot appears only among parents (it
	// holds the ROOT label, so it is nobody's child).
	carve := func(prefix, ns []graph.NodeID) []graph.NodeID {
		lo := len(flat)
		flat = append(flat, prefix...)
		for _, n := range ns {
			if n == ihRoot {
				flat = append(flat, c.igRoot)
			} else {
				flat = append(flat, c.fromIH(n))
			}
		}
		return flat[lo:len(flat):len(flat)]
	}
	c.rootChildren = carve(ig.Children(c.igRoot), ih.Children(ihRoot))
	c.parents = make([][]graph.NodeID, ih.NumNodes()-1)
	c.children = make([][]graph.NodeID, ih.NumNodes()-1)
	for i := range c.parents {
		j := c.toIH(graph.NodeID(c.base + i))
		c.parents[i], c.children[i] = carve(nil, ih.Parents(j)), carve(nil, ih.Children(j))
	}
	return c, nil
}

// toIH translates a source id >= base to an I_H node id, skipping the
// excluded root class.
func (c *GraftSource) toIH(n graph.NodeID) graph.NodeID {
	j := n - graph.NodeID(c.base)
	if j >= c.ihRoot {
		j++
	}
	return j
}

// fromIH translates an I_H node id (!= ihRoot) to a source id.
func (c *GraftSource) fromIH(j graph.NodeID) graph.NodeID {
	if j > c.ihRoot {
		j--
	}
	return j + graph.NodeID(c.base)
}

// Base returns the number of I_G nodes: source ids below it are I_G's own.
func (c *GraftSource) Base() int { return c.base }

// NumNodes implements Source.
func (c *GraftSource) NumNodes() int { return c.base + c.ih.NumNodes() - 1 }

// Label implements Source.
func (c *GraftSource) Label(n graph.NodeID) graph.LabelID {
	if int(n) < c.base {
		return c.ig.Label(n)
	}
	return c.ih.Label(c.toIH(n))
}

// Parents implements Source. Like IndexGraph's, the slice must not be mutated.
func (c *GraftSource) Parents(n graph.NodeID) []graph.NodeID {
	if int(n) < c.base {
		return c.ig.Parents(n)
	}
	return c.parents[int(n)-c.base]
}

// Children implements Source. Like IndexGraph's, the slice must not be mutated.
func (c *GraftSource) Children(n graph.NodeID) []graph.NodeID {
	switch {
	case n == c.igRoot:
		return c.rootChildren
	case int(n) < c.base:
		return c.ig.Children(n)
	}
	return c.children[int(n)-c.base]
}

// AppendExtent implements Source. A grafted node's run is ascending and
// larger than every id I_G indexes.
func (c *GraftSource) AppendExtent(dst []graph.NodeID, n graph.NodeID) []graph.NodeID {
	if int(n) < c.base {
		return c.ig.AppendExtent(dst, n)
	}
	for _, hn := range c.ih.Members(c.toIH(n)) {
		dst = append(dst, c.firstNew+hn-1)
	}
	return dst
}

// Data implements Source.
func (c *GraftSource) Data() *graph.Graph { return c.ig.Data() }

// MemberK reports the local similarity already established for a source
// node, which clamps what a construction over this source may claim.
func (c *GraftSource) MemberK(n graph.NodeID) int {
	if int(n) < c.base {
		return c.ig.K(n)
	}
	return c.ih.K(c.toIH(n))
}

var _ Source = (*GraftSource)(nil)
