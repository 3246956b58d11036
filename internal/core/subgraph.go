package core

import (
	"fmt"

	"dkindex/internal/graph"
	"dkindex/internal/index"
)

// AddSubgraph is Algorithm 3, the subgraph-addition update: the document
// graph h (with its own ROOT) is grafted under the root of the indexed data
// graph — h's root is identified with the data graph's root — and the index
// is updated without re-examining the old data:
//
//  1. the D(k)-index I_H of the new subgraph is constructed;
//  2. I_H is attached under the root class of the current index I_G;
//  3. the combination is treated as a data graph and the D(k)-index is
//     rebuilt from it, merging extents (justified by Theorem 2).
//
// It returns the mapping from h's node ids to the ids the grafted nodes
// received in the data graph (h's root maps to the data graph's root).
// Labels are matched by name, so h may use its own label table.
func (dk *DK) AddSubgraph(h *graph.Graph) ([]graph.NodeID, error) {
	g := dk.IG.Data()
	if g.Root() == graph.InvalidNode {
		return nil, fmt.Errorf("core: data graph has no root to graft under")
	}
	if h.Root() == graph.InvalidNode {
		return nil, fmt.Errorf("core: subgraph has no root")
	}

	// Build hg first: a standalone copy of h over a scratch copy of g's label
	// table (same ids, so I_H composes with I_G), and I_H over it. Nothing of
	// g is written until the document is known to be acceptable — a rejected
	// document must leave the index exactly as it found it, interned labels
	// included, because a batch's surviving members publish this very clone.
	hg := graph.NewWithLabels(g.Labels().Clone())
	hgOf := make([]graph.NodeID, h.NumNodes())
	hgRoot := hg.AddRoot()
	for n := 0; n < h.NumNodes(); n++ {
		if hn := graph.NodeID(n); hn == h.Root() {
			hgOf[n] = hgRoot
		} else {
			hgOf[n] = hg.AddNode(h.LabelName(hn))
		}
	}
	for n := 0; n < h.NumNodes(); n++ {
		for _, c := range h.Children(graph.NodeID(n)) {
			hg.AddEdge(hgOf[n], hgOf[c])
		}
	}

	// Step 1: D(k)-index of the new subgraph, with the same per-label
	// requirements ("index nodes with the same label should have the same
	// local similarity").
	ih, _ := buildFromSource(index.DataSource{G: hg}, dk.LabelReqs, nil, false)
	if ih.ExtentSize(ih.IndexOf(hgRoot)) != 1 {
		return nil, fmt.Errorf("core: subgraph index root class is not a singleton")
	}

	// Graft h's nodes and edges into the data graph. Labels are interned in
	// the order hg interned them into its copy of the same table, so the ids
	// agree. hgToG translates hg node ids to data-graph ids.
	mapping := make([]graph.NodeID, h.NumNodes())
	hgToG := make([]graph.NodeID, hg.NumNodes())
	for n := 0; n < h.NumNodes(); n++ {
		if hn := graph.NodeID(n); hn == h.Root() {
			mapping[n] = g.Root()
		} else {
			mapping[n] = g.AddNode(h.LabelName(hn))
		}
		hgToG[hgOf[n]] = mapping[n]
	}
	for n := 0; n < h.NumNodes(); n++ {
		for _, c := range h.Children(graph.NodeID(n)) {
			g.AddEdge(mapping[n], mapping[c])
		}
	}

	// Steps 2+3: rebuild over the composite of I_G and I_H.
	comp := newCompositeSource(dk.IG, ih, hgToG)
	dk.IG, dk.Stats = buildFromSource(comp, dk.LabelReqs, comp.memberK, false)
	return mapping, nil
}

// compositeSource presents the old index I_G with the subgraph index I_H
// grafted under its root class as one construction source. Composite node
// ids are: [0, base) = I_G nodes, [base, ...) = I_H nodes except I_H's root
// class, whose children re-parent to I_G's root class.
type compositeSource struct {
	ig, ih   *index.IndexGraph
	base     int
	ihRoot   graph.NodeID // I_H's root class (excluded)
	igRoot   graph.NodeID // I_G's root class
	hgToG    []graph.NodeID
	numNodes int
}

// newCompositeSource requires I_H's root class to be a singleton (the root
// alone), which AddSubgraph checks before it writes anything.
func newCompositeSource(ig, ih *index.IndexGraph, hgToG []graph.NodeID) *compositeSource {
	return &compositeSource{
		ig:       ig,
		ih:       ih,
		base:     ig.NumNodes(),
		ihRoot:   ih.IndexOf(ih.Data().Root()),
		igRoot:   ig.IndexOf(ig.Data().Root()),
		hgToG:    hgToG,
		numNodes: ig.NumNodes() + ih.NumNodes() - 1,
	}
}

// toIH translates a composite id >= base to an I_H node id, skipping the
// excluded root class.
func (c *compositeSource) toIH(n graph.NodeID) graph.NodeID {
	j := n - graph.NodeID(c.base)
	if j >= c.ihRoot {
		j++
	}
	return j
}

// fromIH translates an I_H node id (!= ihRoot) to a composite id.
func (c *compositeSource) fromIH(j graph.NodeID) graph.NodeID {
	if j > c.ihRoot {
		j--
	}
	return j + graph.NodeID(c.base)
}

func (c *compositeSource) NumNodes() int { return c.numNodes }

func (c *compositeSource) Label(n graph.NodeID) graph.LabelID {
	if int(n) < c.base {
		return c.ig.Label(n)
	}
	return c.ih.Label(c.toIH(n))
}

func (c *compositeSource) Parents(n graph.NodeID) []graph.NodeID {
	if int(n) < c.base {
		return c.ig.Parents(n)
	}
	ps := c.ih.Parents(c.toIH(n))
	out := make([]graph.NodeID, 0, len(ps))
	for _, p := range ps {
		if p == c.ihRoot {
			out = append(out, c.igRoot)
		} else {
			out = append(out, c.fromIH(p))
		}
	}
	return out
}

func (c *compositeSource) Children(n graph.NodeID) []graph.NodeID {
	if int(n) < c.base {
		// Copy: the index owns the adjacency slice, and the igRoot case
		// appends the added subgraph's children to it.
		out := append([]graph.NodeID(nil), c.ig.Children(n)...)
		if n == c.igRoot {
			for _, ch := range c.ih.Children(c.ihRoot) {
				out = append(out, c.fromIH(ch))
			}
		}
		return out
	}
	chs := c.ih.Children(c.toIH(n))
	out := make([]graph.NodeID, 0, len(chs))
	for _, ch := range chs {
		out = append(out, c.fromIH(ch)) // ihRoot is never a child: it holds the ROOT label
	}
	return out
}

func (c *compositeSource) AppendExtent(dst []graph.NodeID, n graph.NodeID) []graph.NodeID {
	if int(n) < c.base {
		return c.ig.AppendExtent(dst, n)
	}
	// Iterate the compressed extent directly; the hgToG remap means the
	// appended run may be unsorted, and construction sorts before encoding.
	c.ih.ExtentSet(c.toIH(n)).Iterate(func(hn graph.NodeID) bool {
		dst = append(dst, c.hgToG[hn])
		return true
	})
	return dst
}

func (c *compositeSource) Data() *graph.Graph { return c.ig.Data() }

// memberK reports the established local similarity of a composite node, used
// to clamp the rebuilt index when old similarities have decayed.
func (c *compositeSource) memberK(n graph.NodeID) int {
	if int(n) < c.base {
		return c.ig.K(n)
	}
	return c.ih.K(c.toIH(n))
}

var _ index.Source = (*compositeSource)(nil)
