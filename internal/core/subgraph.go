package core

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"dkindex/internal/graph"
	"dkindex/internal/index"
	"dkindex/internal/partition"
)

// AddSubgraph is Algorithm 3, the subgraph-addition update: the document
// graph h (with its own ROOT) is grafted under the root of the indexed data
// graph — h's root is identified with the data graph's root — and the index
// is updated without re-examining the old data:
//
//  1. the D(k)-index I_H of the new subgraph is constructed;
//  2. I_H is attached under the root class of the current index I_G;
//  3. the combination is treated as a data graph and refined as a
//     construction would refine it (justified by Theorem 2).
//
// What step 3's partition says decides what the update costs. Usually every
// block holds at most one node of I_G — the document's classes joined
// existing ones or stand alone — and then the index is the one it was plus
// the document: graft writes the document's nodes, edges and similarities
// onto dk.IG in place, and a copy-on-write clone pays for the pages that
// touches. When the refinement merges nodes of I_G (edge updates had split
// what the requirements no longer tell apart), the index graph is
// materialised anew from the partition and replaces dk.IG. Both give the
// same index, node for node.
//
// It returns the mapping from h's node ids to the ids the grafted nodes
// received in the data graph (h's root maps to the data graph's root).
// Labels are matched by name, so h may use its own label table.
func (dk *DK) AddSubgraph(h *graph.Graph) ([]graph.NodeID, error) {
	return dk.addSubgraph(h, false)
}

// addSubgraph is AddSubgraph; with rebuild set it materialises whatever the
// partition says, which is the oracle the graft is tested against.
func (dk *DK) addSubgraph(h *graph.Graph, rebuild bool) ([]graph.NodeID, error) {
	start := time.Now()
	g := dk.IG.Data()
	if g.Root() == graph.InvalidNode {
		return nil, fmt.Errorf("core: data graph has no root to graft under")
	}
	if h.Root() == graph.InvalidNode {
		return nil, fmt.Errorf("core: subgraph has no root")
	}

	// Build hg first: a standalone copy of h over a scratch copy of g's label
	// table (same ids, so I_H composes with I_G), root first and then h's
	// nodes in order, and I_H over it. Nothing of g is written until the
	// document is known to be acceptable — a rejected document must leave the
	// index exactly as it found it, interned labels included, because a
	// batch's surviving members publish this very clone.
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
	sc := graftScratch.Get().(*refineScratch)
	defer graftScratch.Put(sc)
	ih, _ := sc.build(index.DataSource{G: hg}, dk.LabelReqs, nil, false)
	// Step 2: attach it under I_G's root class.
	comp, err := index.NewGraftSource(dk.IG, ih, graph.NodeID(g.NumNodes()))
	if err != nil {
		return nil, fmt.Errorf("core: subgraph rejected: %w", err)
	}

	// Graft h's nodes into the data graph, in hg's order: labels are interned
	// in the order hg interned them into its copy of the same table, so label
	// ids agree, and hg's node i >= 1 becomes the i-th new data node, which is
	// the translation comp applies to I_H's extents.
	mapping := make([]graph.NodeID, h.NumNodes())
	for n := 0; n < h.NumNodes(); n++ {
		if hn := graph.NodeID(n); hn == h.Root() {
			mapping[n] = g.Root()
		} else {
			mapping[n] = g.AddNode(h.LabelName(hn))
		}
	}

	// Step 3: refine the combination, then graft or materialise.
	p, blockK, clamped, stats := sc.refine(comp, dk.LabelReqs, comp.MemberK, false)
	if !rebuild && keepsOldNodes(p, comp.Base()) {
		graft(dk.IG, comp, p, blockK)
		for n := 0; n < h.NumNodes(); n++ {
			for _, c := range h.Children(graph.NodeID(n)) {
				dk.IG.AddDataEdge(mapping[n], mapping[c])
			}
		}
		if clamped {
			sc.lower.run(dk.IG)
		}
	} else {
		for n := 0; n < h.NumNodes(); n++ {
			for _, c := range h.Children(graph.NodeID(n)) {
				g.AddEdge(mapping[n], mapping[c])
			}
		}
		dk.IG = sc.materialise(comp, p, blockK, clamped)
	}
	stats.Total = time.Since(start)
	dk.Stats = stats
	return mapping, nil
}

// graftScratch hands Algorithm 3's refinement scratch from one document to
// the next. Both of a document's jobs (I_H over the document, then the
// combination) run on one; they are index-sized at most.
var graftScratch = sync.Pool{New: func() any { return new(refineScratch) }}

// keepsOldNodes reports whether a refined partition of a graft source left
// every one of its first base nodes — the nodes of the index grafted onto —
// in a block of its own. Blocks are numbered by first member in node order,
// so that is the case exactly when node i < base is in block i, and then the
// blocks from base up hold document classes only.
func keepsOldNodes(p *partition.Partition, base int) bool {
	for i := 0; i < base; i++ {
		if p.BlockOf(graph.NodeID(i)) != partition.BlockID(i) {
			return false
		}
	}
	return true
}

// graft applies a partition that keepsOldNodes to the index itself, writing
// exactly what index.FromPartition would have made different: block b < base
// is index node b, whose extent gains the data nodes of the document classes
// in its block and whose similarity drops to the block's if that is lower;
// each block from base up becomes a new index node, in block order, so ids
// agree with the materialised index. The document's edges are the caller's
// to add, once every new data node has its index node.
func graft(ig *index.IndexGraph, comp *index.GraftSource, p *partition.Partition, blockK []int) {
	base := comp.Base()
	var ext []graph.NodeID
	for b := 0; b < p.NumBlocks(); b++ {
		n := graph.NodeID(b)
		joined := p.Members(partition.BlockID(b))
		if b < base {
			if blockK[b] < ig.K(n) {
				ig.SetK(n, blockK[b])
			}
			if joined = joined[1:]; len(joined) == 0 { // joined[0] is n itself
				continue
			}
		}
		ext = ext[:0]
		for _, m := range joined {
			ext = comp.AppendExtent(ext, m)
		}
		slices.Sort(ext)
		if b < base {
			ig.GraftExtent(n, ext)
		} else if nb := ig.GraftNode(comp.Label(joined[0]), blockK[b], ext); nb != n {
			panic(fmt.Sprintf("core: grafted block %d became index node %d", b, nb))
		}
	}
}
