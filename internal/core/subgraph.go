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

// AddSubgraph is Algorithm 3, the subgraph-addition update, for a run of
// documents: each document (its node 0 its own ROOT) is grafted under the
// root of the indexed data graph — its root is identified with the data
// graph's root — and the index is updated without re-examining the old data:
//
//  1. the D(k)-index I_H of the new subgraph is constructed;
//  2. I_H is attached under the root class of the current index I_G;
//  3. the combination is treated as a data graph and refined as a
//     construction would refine it (justified by Theorem 2).
//
// The run is one new subgraph: its documents are laid out as one forest
// under the shared root (index.Subgraph), so each step runs once for the run
// and not once per document. Data node ids, interned label ids and the
// mappings are those adding the documents one by one would give.
//
// What step 3's partition says decides what the update writes, and either
// way it writes it onto dk.IG, which a copy-on-write clone pays for by the
// page. Every block that holds nodes of I_G keeps the lowest of them: its
// extent gains the data nodes of the document classes in the block and its
// local similarity becomes the block's. Every other block becomes a new
// index node. When a block holds several nodes of I_G (edge updates had
// split what the requirements no longer tell apart), the others are merged
// into the one it keeps (IndexGraph.MergeNodes): their extents and edges move
// to it, and their ids are filled by the last nodes. The result is the index
// FromPartition would materialise from the partition, up to node numbering.
//
// Every document must pass CheckDocument; AddSubgraph returns the error of
// the first that does not, and then has written nothing. It returns, for
// each document, the mapping from its node ids to the ids the grafted nodes
// received in the data graph (its root maps to the data graph's root).
// Labels are matched by name, so each document may use its own label table.
func (dk *DK) AddSubgraph(docs ...index.Document) ([][]graph.NodeID, error) {
	return dk.addSubgraph(docs, false)
}

// addSubgraph is AddSubgraph; with rebuild set it materialises whatever the
// partition says through index.FromPartition, which is the oracle the
// in-place graft and merge are tested against.
func (dk *DK) addSubgraph(docs []index.Document, rebuild bool) ([][]graph.NodeID, error) {
	start := time.Now()
	g := dk.IG.Data()
	if g.Root() == graph.InvalidNode {
		return nil, fmt.Errorf("core: data graph has no root to graft under")
	}
	// Nothing of g is written until every document is known to be
	// acceptable — a rejected document must leave the index exactly as it
	// found it, interned labels included, because a batch's surviving
	// members publish this very clone. The subgraph only looks g's label
	// table up.
	for _, h := range docs {
		if err := dk.CheckDocument(h); err != nil {
			return nil, err
		}
	}
	sub, err := index.NewSubgraph(g.Labels(), docs...)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	sc := graftScratch.Get().(*refineScratch)
	defer graftScratch.Put(sc)
	// Step 1: the D(k)-index of the new subgraph, with the same per-label
	// requirements ("index nodes with the same label should have the same
	// local similarity"): those step 3 will hold the combination's nodes to,
	// which Algorithm 1 broadcasts over both graphs' labels together. A
	// document class refined to less would cap its block's similarity.
	reqs := sc.labels.broadcast(dk.IG, sub, dk.LabelReqs)
	ih := sc.subIndex(sub, func(l graph.LabelID) int { return reqs[l] })
	// Step 2: attach it under I_G's root class. Every document passed
	// CheckDocument, so the forest's root class is its root alone: a node
	// split from its own document's root is split from the forest's, whose
	// broadcast requirements are at least the document's.
	first := graph.NodeID(g.NumNodes()) - 1 // forest node i >= 1 becomes data node first+i
	comp, err := index.NewGraftSource(dk.IG, ih, first+1)
	if err != nil {
		return nil, fmt.Errorf("core: subgraph rejected: %w", err)
	}
	mappings := sub.AddTo(g)
	addEdges := func(add func(u, v graph.NodeID)) {
		at := func(n graph.NodeID) graph.NodeID {
			if n == 0 {
				return g.Root()
			}
			return first + n
		}
		for n := range sub.NumNodes() {
			for _, c := range sub.Children(graph.NodeID(n)) {
				add(at(graph.NodeID(n)), at(c))
			}
		}
	}

	// Step 3: refine the combination, then apply the partition.
	p, blockK, clamped, stats := sc.refine(comp, dk.LabelReqs.Get, comp.MemberK)
	if rebuild {
		addEdges(func(u, v graph.NodeID) { g.AddEdge(u, v) })
		dk.IG = sc.materialise(comp, p, blockK, clamped)
	} else {
		if merges := graft(dk.IG, comp, p, blockK); len(merges) > 0 {
			dk.IG.MergeNodes(merges)
		}
		addEdges(func(u, v graph.NodeID) { dk.IG.AddDataEdge(u, v) })
		if clamped {
			sc.lower.run(dk.IG)
		}
	}
	stats.Total = time.Since(start)
	dk.Stats = stats
	return mappings, nil
}

// CheckDocument reports why AddSubgraph would reject h, deciding from h
// alone: its root must be node 0, and its root class must be the root alone,
// since only the root is identified with the index's root class. Only a
// document with another node carrying its root's label can fail the second
// rule, so only such a document has its sub-index built here.
func (dk *DK) CheckDocument(h index.Document) error {
	if h.NumNodes() == 0 || h.Root() != 0 {
		return fmt.Errorf("core: index: subgraph has no root at node 0")
	}
	for v := 1; v < h.NumNodes(); v++ {
		if h.Label(graph.NodeID(v)) != h.Label(0) {
			continue
		}
		sub, err := index.NewSubgraph(dk.IG.Data().Labels(), h)
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
		sc := graftScratch.Get().(*refineScratch)
		defer graftScratch.Put(sc)
		if !sc.subIndex(sub, dk.LabelReqs.Get).RootAlone() {
			return fmt.Errorf("core: subgraph rejected: a node labeled like the root is not split from it")
		}
		return nil
	}
	return nil
}

// subIndex is step 1 of Algorithm 3: the forest's own D(k)-index, refined on
// the scratch and copied out of it, so the scratch is free for step 3.
func (sc *refineScratch) subIndex(sub *index.Subgraph, reqOf func(graph.LabelID) int) *index.SubIndex {
	p, blockK, _, _ := sc.refine(sub, reqOf, nil)
	return index.NewSubIndex(sub, p, func(b partition.BlockID) int { return blockK[b] })
}

// labelGraph is the label graph of an index and a forest taken together:
// label l's parents are the labels of the parents of every index node and
// every forest node carrying l, the forest's root standing for the index's
// root. Its arrays are kept from one run of documents to the next.
type labelGraph struct {
	parents [][]graph.NodeID
	flat    []graph.NodeID // backs parents
	lastFor []int32        // lastFor[pl] = l+1 once pl is listed as a parent of l
	reqs    []int
}

func (q *labelGraph) NumNodes() int                         { return len(q.parents) }
func (q *labelGraph) Parents(n graph.NodeID) []graph.NodeID { return q.parents[n] }

// broadcast returns, by label id, the requirements reqs raised by Algorithm
// 1 over the label graph of ig and sub together — what the label-split
// blocks of their combination require once broadcast. It is good until the
// next broadcast.
func (q *labelGraph) broadcast(ig *index.IndexGraph, sub *index.Subgraph, reqs Requirements) []int {
	nl := sub.NumLabels()
	q.parents = slices.Grow(q.parents[:0], nl)[:nl]
	q.lastFor = slices.Grow(q.lastFor[:0], nl)[:nl]
	clear(q.lastFor)
	q.flat = q.flat[:0]
	q.reqs = slices.Grow(q.reqs[:0], nl)[:nl]
	rootLabel := ig.Label(ig.IndexOf(ig.Data().Root()))
	list := func(l graph.LabelID, pl graph.LabelID) {
		if q.lastFor[pl] != int32(l+1) {
			q.lastFor[pl] = int32(l + 1)
			q.flat = append(q.flat, graph.NodeID(pl))
		}
	}
	for l := range nl {
		lo := len(q.flat)
		nodes := ig.NodesWithLabel(graph.LabelID(l))
		for i := range nodes.Len() {
			for _, p := range ig.Parents(nodes.At(i)) {
				list(graph.LabelID(l), ig.Label(p))
			}
		}
		for v := 1; v < sub.NumNodes(); v++ {
			if sub.Label(graph.NodeID(v)) != graph.LabelID(l) {
				continue
			}
			for _, p := range sub.Parents(graph.NodeID(v)) {
				if p == 0 {
					list(graph.LabelID(l), rootLabel)
				} else {
					list(graph.LabelID(l), sub.Label(p))
				}
			}
		}
		q.parents[l] = q.flat[lo:len(q.flat):len(q.flat)]
		q.reqs[l] = reqs.Get(graph.LabelID(l))
	}
	return broadcast(q, q.reqs)
}

// graftScratch hands Algorithm 3's refinement scratch from one run of
// documents to the next. Both of a run's jobs (I_H over the forest, then the
// combination) run on one; they are index-sized at most.
var graftScratch = sync.Pool{New: func() any { return new(refineScratch) }}

// graft applies a refined partition of a graft source to the index itself,
// all but the merges, which it returns for IndexGraph.MergeNodes. Blocks are
// numbered by first member in node order, so the blocks holding nodes of I_G
// come first, each led by the lowest of them: that node keeps its id, takes
// the block's local similarity and gains the data nodes of the document
// classes in its block, and the block's other I_G nodes, if any, make its
// merge group. Each block holding document classes only becomes a new index
// node, in block order. The documents' edges are the caller's to add, once
// every new data node has its index node.
func graft(ig *index.IndexGraph, comp *index.GraftSource, p *partition.Partition, blockK []int) (merges [][]graph.NodeID) {
	base := graph.NodeID(comp.Base())
	var ext []graph.NodeID
	for b := 0; b < p.NumBlocks(); b++ {
		mem := p.Members(partition.BlockID(b))
		old := 0 // the block's members from I_G, a prefix
		for old < len(mem) && mem[old] < base {
			old++
		}
		ext = ext[:0]
		for _, m := range mem[old:] {
			ext = comp.AppendExtent(ext, m)
		}
		slices.Sort(ext)
		if old == 0 {
			ig.GraftNode(comp.Label(mem[0]), blockK[b], ext)
			continue
		}
		n := mem[0]
		if blockK[b] != ig.K(n) {
			ig.SetK(n, blockK[b])
		}
		if len(ext) > 0 {
			ig.GraftExtent(n, ext)
		}
		if old > 1 {
			merges = append(merges, mem[:old])
		}
	}
	return merges
}
