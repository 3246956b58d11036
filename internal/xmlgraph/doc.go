package xmlgraph

import "dkindex/internal/graph"

// Doc is a document in compact form, what LoadDoc parses: node 0 is the
// root, every node's label is an id into the document's own label table (in
// order of first appearance, ROOT first), and the children of all nodes are
// one graph.CSR with ascending rows. Unlike a graph.Graph it keeps no pages,
// no parents and no per-label lists, so it costs a few slices sized by its
// nodes and edges. It satisfies index.Document, and Load builds its graph
// from it.
type Doc struct {
	tab      *graph.LabelTable
	labels   []graph.LabelID
	children graph.CSR

	edges [][2]graph.NodeID // build state, dropped once the CSR is laid out
}

// NumNodes returns the number of nodes, the root included.
func (d *Doc) NumNodes() int { return len(d.labels) }

// NumLabels returns the number of names in the document's label table.
func (d *Doc) NumLabels() int { return d.tab.Len() }

// Root returns node 0.
func (d *Doc) Root() graph.NodeID { return 0 }

// Label returns the id of node n's label in the document's label table.
func (d *Doc) Label(n graph.NodeID) graph.LabelID { return d.labels[n] }

// LabelName returns node n's label.
func (d *Doc) LabelName(n graph.NodeID) string { return d.tab.Name(d.labels[n]) }

// Children returns node n's children in ascending order. The slice is the
// document's and must not be mutated.
func (d *Doc) Children(n graph.NodeID) []graph.NodeID { return d.children.Row(n) }

func (d *Doc) node(name string) graph.NodeID {
	d.labels = append(d.labels, d.tab.Intern(name))
	return graph.NodeID(len(d.labels) - 1)
}

// edge adds from -> to; a repeated edge is one edge.
func (d *Doc) edge(from, to graph.NodeID) { d.edges = append(d.edges, [2]graph.NodeID{from, to}) }
