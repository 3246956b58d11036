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

// Subgraph is a run of documents over an index's label ids, ready to be
// added as one forest under a shared root: node 0 is the root every
// document's root is identified with, then come the first document's nodes
// 1.., then the second's, and so on: document j's node v >= 1 is forest node
// v plus the number of non-root nodes of the documents before it. Every node
// is labeled with the id its name has in the index's table or, for a name
// the table lacks, the id AddTo will intern it as (new names in order of
// first appearance over the forest, which is the order adding the documents
// one by one interns them in). Nothing is written to the table before AddTo,
// so a run rejected in between leaves it as it was. A Subgraph is the
// construction source of the run's sub-index.
type Subgraph struct {
	labels    []graph.LabelID
	newNames  []string
	nextLabel graph.LabelID // the id of newNames[0]
	// starts[j] is the forest node of document j's node 1, and
	// starts[len(docs)] the forest's node count.
	starts            []int
	children, parents graph.CSR // parents ascending
}

// NewSubgraph lays the documents out as one forest, translating each one's
// labels into tab's ids with one remap that looks each of its labels up
// once, and derives the parents refinement reads.
func NewSubgraph(tab *graph.LabelTable, docs ...Document) (*Subgraph, error) {
	if len(docs) == 0 {
		return nil, fmt.Errorf("index: no document to add")
	}
	n, edges := 1, 0
	for j, h := range docs {
		if h.NumNodes() == 0 || h.Root() != 0 {
			return nil, fmt.Errorf("index: document %d has no root at node 0", j)
		}
		n += h.NumNodes() - 1
		for v := range h.NumNodes() {
			edges += len(h.Children(graph.NodeID(v)))
		}
	}
	s := &Subgraph{
		labels:    make([]graph.LabelID, n),
		nextLabel: graph.LabelID(tab.Len()),
		starts:    make([]int, len(docs)+1),
		children:  graph.MakeCSR(n, edges),
	}
	s.starts[0] = 1
	var remap []graph.LabelID // by a document's label id, InvalidLabel until seen
	for j, h := range docs {
		s.starts[j+1] = s.starts[j] + h.NumNodes() - 1
		remap = slices.Grow(remap[:0], h.NumLabels())[:h.NumLabels()]
		for l := range remap {
			remap[l] = graph.InvalidLabel
		}
		for v := range h.NumNodes() {
			id := graph.NodeID(v)
			l := h.Label(id)
			if remap[l] == graph.InvalidLabel {
				remap[l] = s.intern(tab, h.LabelName(id))
			}
			if v > 0 || j == 0 {
				s.labels[s.node(j, id)] = remap[l]
			}
		}
	}
	// Row 0 lists every document's top-level nodes, the rows after it each
	// document's nodes in turn.
	for j, h := range docs {
		s.appendRow(j, h.Children(0))
	}
	s.children.Close(1)
	for j, h := range docs {
		for v := 1; v < h.NumNodes(); v++ {
			s.appendRow(j, h.Children(graph.NodeID(v)))
			s.children.Close(s.starts[j] + v)
		}
	}
	s.parents = graph.Transpose(n, s.children.Row)
	return s, nil
}

// intern returns the id name has in tab or, for a name tab lacks, the id
// AddTo will give it.
func (s *Subgraph) intern(tab *graph.LabelTable, name string) graph.LabelID {
	if l := tab.Lookup(name); l != graph.InvalidLabel {
		return l
	}
	i := slices.Index(s.newNames, name)
	if i < 0 {
		i = len(s.newNames)
		s.newNames = append(s.newNames, name)
	}
	return s.nextLabel + graph.LabelID(i)
}

// node is the forest node of document j's node v.
func (s *Subgraph) node(j int, v graph.NodeID) graph.NodeID {
	if v == 0 {
		return 0
	}
	return graph.NodeID(s.starts[j]-1) + v
}

// appendRow appends document j's list vs, translated to forest nodes, to the
// open row of the children.
func (s *Subgraph) appendRow(j int, vs []graph.NodeID) {
	for _, v := range vs {
		s.children.Append(s.node(j, v))
	}
}

// NumNodes implements partition.Labeled.
func (s *Subgraph) NumNodes() int { return len(s.labels) }

// NumLabels returns the number of label ids the forest may carry: the
// table's, and the new names AddTo will intern.
func (s *Subgraph) NumLabels() int { return int(s.nextLabel) + len(s.newNames) }

// Label implements partition.Labeled: the index's id for node n's label.
func (s *Subgraph) Label(n graph.NodeID) graph.LabelID { return s.labels[n] }

// Parents implements partition.Labeled.
func (s *Subgraph) Parents(n graph.NodeID) []graph.NodeID { return s.parents.Row(n) }

// Children returns the forest's children of node n.
func (s *Subgraph) Children(n graph.NodeID) []graph.NodeID { return s.children.Row(n) }

// AddTo interns the run's new names into g's label table and appends the
// forest's nodes to g, all but the root, in node order, so forest node i >= 1
// becomes the i-th new data node. It returns, for each document, the data
// node each of its nodes became, its root being g's root. The edges are the
// caller's to add, once the new nodes are indexed.
func (s *Subgraph) AddTo(g *graph.Graph) [][]graph.NodeID {
	for i, name := range s.newNames {
		if l := g.Labels().Intern(name); l != s.nextLabel+graph.LabelID(i) {
			panic(fmt.Sprintf("index: label %q interned as %d, the subgraph assumed %d", name, l, s.nextLabel+graph.LabelID(i)))
		}
	}
	first := graph.NodeID(g.NumNodes()) - 1 // the data node of forest node 0, were it not the root
	for i := 1; i < len(s.labels); i++ {
		g.AddNodeID(s.labels[i])
	}
	flat := make([]graph.NodeID, len(s.labels)+len(s.starts)-2) // every document's nodes, its root included
	mappings := make([][]graph.NodeID, len(s.starts)-1)
	for j := range mappings {
		n := s.starts[j+1] - s.starts[j] + 1
		at := flat[:n:n]
		flat = flat[n:]
		at[0] = g.Root()
		for v := 1; v < len(at); v++ {
			at[v] = first + s.node(j, graph.NodeID(v))
		}
		mappings[j] = at
	}
	return mappings
}

// SubIndex is a run of documents' sub-index I_H in the form Algorithm 3 reads
// it, through GraftSource: the blocks of a refined partition of a Subgraph,
// each with its label, local similarity and ascending members, and the
// ascending parent and child blocks the forest's edges induce. Blocks keep the
// partition's numbering, which is how FromPartition would number I_H's
// nodes; no IndexGraph is built.
type SubIndex struct {
	root                       graph.NodeID // the block holding the forest's root
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

// Root returns the block holding the forest's root.
func (ih *SubIndex) Root() graph.NodeID { return ih.root }

// RootAlone reports whether the root's block holds the root alone, which is
// what identifying it with an index's root class takes: a node that carries
// the root's label and was not split from it has no place under that class.
func (ih *SubIndex) RootAlone() bool { return len(ih.Members(ih.root)) == 1 }

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
