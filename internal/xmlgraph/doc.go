package xmlgraph

import (
	"slices"

	"dkindex/internal/graph"
)

// Doc is a document in compact form, what LoadDoc parses for adding to an
// index: node 0 is the root, every node's label is an id into the
// document's own name table (in order of first appearance, ROOT first), and
// the children of all nodes are one flat CSR with ascending rows. Unlike a
// graph.Graph it keeps no pages, no parents and no per-label lists, so it
// costs a few slices sized by its nodes and edges. It satisfies
// index.Document.
type Doc struct {
	names    []string
	labels   []graph.LabelID
	offsets  []int32 // row n of children is children[offsets[n]:offsets[n+1]]
	children []graph.NodeID

	// Build state, dropped by seal.
	ids   map[string]graph.LabelID
	edges [][2]graph.NodeID
}

// NumNodes returns the number of nodes, the root included.
func (d *Doc) NumNodes() int { return len(d.labels) }

// Root returns node 0.
func (d *Doc) Root() graph.NodeID { return 0 }

// Label returns the id of node n's label in the document's name table.
func (d *Doc) Label(n graph.NodeID) graph.LabelID { return d.labels[n] }

// LabelName returns node n's label.
func (d *Doc) LabelName(n graph.NodeID) string { return d.names[d.labels[n]] }

// Children returns node n's children in ascending order. The slice is the
// document's and must not be mutated.
func (d *Doc) Children(n graph.NodeID) []graph.NodeID {
	return d.children[d.offsets[n]:d.offsets[n+1]]
}

func (d *Doc) node(name string) graph.NodeID {
	l, ok := d.ids[name]
	if !ok {
		l = graph.LabelID(len(d.names))
		d.names = append(d.names, name)
		d.ids[name] = l
	}
	d.labels = append(d.labels, l)
	return graph.NodeID(len(d.labels) - 1)
}

func (d *Doc) edge(from, to graph.NodeID) { d.edges = append(d.edges, [2]graph.NodeID{from, to}) }

// seal lays the edges out as the CSR: a counting sort by source, then each
// row sorted and rid of repeats.
func (d *Doc) seal() int {
	n := len(d.labels)
	d.offsets = make([]int32, n+1)
	for _, e := range d.edges {
		d.offsets[e[0]]++
	}
	end := int32(0)
	for i := range n {
		end += d.offsets[i]
		d.offsets[i] = end
	}
	d.offsets[n] = end
	d.children = make([]graph.NodeID, len(d.edges))
	for j := len(d.edges) - 1; j >= 0; j-- { // backwards, so rows keep edge order
		e := d.edges[j]
		d.offsets[e[0]]--
		d.children[d.offsets[e[0]]] = e[1]
	}
	w := int32(0)
	for i := range n {
		row := d.children[d.offsets[i]:d.offsets[i+1]]
		slices.Sort(row)
		d.offsets[i] = w
		w += int32(copy(d.children[w:], slices.Compact(row)))
	}
	d.offsets[n] = w
	d.children = d.children[:w]
	d.ids, d.edges = nil, nil
	return int(w)
}
