package index

import (
	"fmt"
	"slices"

	"dkindex/internal/graph"
	"dkindex/internal/partition"
)

// Document is the read view of a document to be added to an index
// (Algorithm 3, and AKSubgraphAdd's baseline): node 0 is its root, the node
// identified with the data graph's root, and every node's label is an id
// into the document's own label table of NumLabels names, named by
// LabelName. A *graph.Graph built root first satisfies it, and so does the
// compact *xmlgraph.Doc a mutation parses.
type Document interface {
	NumNodes() int
	NumLabels() int
	Root() graph.NodeID
	Label(n graph.NodeID) graph.LabelID
	LabelName(n graph.NodeID) string
	Children(n graph.NodeID) []graph.NodeID
}

// Subgraph is a document over an index's label ids, ready to be added: node
// n is the document's node n, labeled with the id its name has in the
// index's table or, for a name the table lacks, the id AddTo will intern it
// as (new names in order of first appearance). Nothing is written to the
// table before AddTo, so a document rejected in between leaves it as it was.
// A Subgraph is the construction source of the document's sub-index.
type Subgraph struct {
	doc       Document
	labels    []graph.LabelID
	newNames  []string
	nextLabel graph.LabelID // the id of newNames[0]
	parents   graph.CSR     // ascending
}

// NewSubgraph translates h's labels into tab's ids with one remap, looking
// each of h's labels up once, and derives the parents refinement reads.
func NewSubgraph(tab *graph.LabelTable, h Document) (*Subgraph, error) {
	n := h.NumNodes()
	if n == 0 || h.Root() != 0 {
		return nil, fmt.Errorf("index: subgraph has no root at node 0")
	}
	s := &Subgraph{
		doc:       h,
		labels:    make([]graph.LabelID, n),
		nextLabel: graph.LabelID(tab.Len()),
		parents:   graph.Transpose(n, h.Children),
	}
	remap := make([]graph.LabelID, h.NumLabels()) // by h's label id, InvalidLabel until seen
	for l := range remap {
		remap[l] = graph.InvalidLabel
	}
	for i := range n {
		id := graph.NodeID(i)
		l := h.Label(id)
		if remap[l] == graph.InvalidLabel {
			name := h.LabelName(id)
			if remap[l] = tab.Lookup(name); remap[l] == graph.InvalidLabel {
				remap[l] = s.nextLabel + graph.LabelID(len(s.newNames))
				s.newNames = append(s.newNames, name)
			}
		}
		s.labels[i] = remap[l]
	}
	return s, nil
}

// NumNodes implements partition.Labeled.
func (s *Subgraph) NumNodes() int { return len(s.labels) }

// Label implements partition.Labeled: the index's id for node n's label.
func (s *Subgraph) Label(n graph.NodeID) graph.LabelID { return s.labels[n] }

// Parents implements partition.Labeled.
func (s *Subgraph) Parents(n graph.NodeID) []graph.NodeID { return s.parents.Row(n) }

// Children returns the document's children of node n.
func (s *Subgraph) Children(n graph.NodeID) []graph.NodeID { return s.doc.Children(n) }

// AddTo interns the document's new names into g's label table and appends
// its nodes to g, all but the root, in node order. It returns the data node
// each document node became: the root is g's root, node i >= 1 the i-th new
// node. The edges are the caller's to add, once the new nodes are indexed.
func (s *Subgraph) AddTo(g *graph.Graph) []graph.NodeID {
	for i, name := range s.newNames {
		if l := g.Labels().Intern(name); l != s.nextLabel+graph.LabelID(i) {
			panic(fmt.Sprintf("index: label %q interned as %d, the subgraph assumed %d", name, l, s.nextLabel+graph.LabelID(i)))
		}
	}
	at := make([]graph.NodeID, len(s.labels))
	at[0] = g.Root()
	for i := 1; i < len(at); i++ {
		at[i] = g.AddNodeID(s.labels[i])
	}
	return at
}

// SubIndex is a document's sub-index I_H in the form Algorithm 3 reads it,
// through GraftSource: the blocks of a refined partition of a Subgraph, each
// with its label, local similarity and ascending members, and the ascending
// parent and child blocks the document's edges induce. Blocks keep the
// partition's numbering, which is how FromPartition would number I_H's
// nodes; no IndexGraph is built.
type SubIndex struct {
	root                       graph.NodeID // the block holding the document root
	label                      []graph.LabelID
	k                          []int
	members, parents, children graph.CSR
}

// NewSubIndex copies out of p, a refined partition of s, what a GraftSource
// reads, so p's storage may be reused at once. kOf supplies each block's
// local similarity.
func NewSubIndex(s *Subgraph, p *partition.Partition, kOf func(partition.BlockID) int) *SubIndex {
	nb, edges := p.NumBlocks(), s.parents.NumEdges()
	ih := &SubIndex{
		root:     graph.NodeID(p.BlockOf(0)),
		label:    make([]graph.LabelID, nb),
		k:        make([]int, nb),
		members:  graph.MakeCSR(nb, s.NumNodes()),
		parents:  graph.MakeCSR(nb, edges),
		children: graph.MakeCSR(nb, edges),
	}
	buf := make([]graph.NodeID, 0, edges)
	blocks := func(mem []graph.NodeID, adj func(graph.NodeID) []graph.NodeID) []graph.NodeID {
		buf = buf[:0]
		for _, m := range mem {
			for _, x := range adj(m) {
				buf = append(buf, graph.NodeID(p.BlockOf(x)))
			}
		}
		slices.Sort(buf)
		return slices.Compact(buf)
	}
	for b := range nb {
		mem := p.Members(partition.BlockID(b))
		ih.label[b] = s.Label(mem[0])
		ih.k[b] = kOf(partition.BlockID(b))
		ih.members.Append(mem...)
		ih.parents.Append(blocks(mem, s.Parents)...)
		ih.children.Append(blocks(mem, s.Children)...)
		ih.members.Close(b + 1)
		ih.parents.Close(b + 1)
		ih.children.Close(b + 1)
	}
	return ih
}

// NumNodes returns the number of blocks.
func (ih *SubIndex) NumNodes() int { return len(ih.label) }

// Root returns the block holding the document's root.
func (ih *SubIndex) Root() graph.NodeID { return ih.root }

// Label returns block b's label.
func (ih *SubIndex) Label(b graph.NodeID) graph.LabelID { return ih.label[b] }

// K returns block b's local similarity.
func (ih *SubIndex) K(b graph.NodeID) int { return ih.k[b] }

// Members returns block b's document nodes, ascending. Like the adjacency
// accessors' slices it must not be mutated.
func (ih *SubIndex) Members(b graph.NodeID) []graph.NodeID { return ih.members.Row(b) }

// Parents returns the blocks with an edge into block b, ascending.
func (ih *SubIndex) Parents(b graph.NodeID) []graph.NodeID { return ih.parents.Row(b) }

// Children returns the blocks block b has an edge into, ascending.
func (ih *SubIndex) Children(b graph.NodeID) []graph.NodeID { return ih.children.Row(b) }
