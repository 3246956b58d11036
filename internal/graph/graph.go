package graph

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"dkindex/internal/cow"
)

// NodeID identifies a node within a Graph. Node identifiers are dense and
// stable: they are assigned consecutively starting from 0 and never reused.
type NodeID int32

// InvalidNode is the sentinel for "no node".
const InvalidNode NodeID = -1

// Graph is a directed, node-labeled multigraph-free graph (parallel edges are
// collapsed). It stores both children and parents adjacency so that backward
// bisimulation (which partitions nodes by their incoming structure) and
// forward query evaluation are both efficient.
//
// A Graph owns a LabelTable (NewWithLabels lets a graph built beside another
// share its table so LabelIDs are comparable across them; Clone clones it,
// preserving ids).
//
// Node labels, both adjacency directions and the per-label node lists live in
// copy-on-write columns (internal/cow): Clone copies none of them, and a write
// copies the directory, chunk and page it lands in unless this graph already
// owns them. Each adjacency direction is a cow.Rows: pages of 32 ascending
// rows laid out back to back, so an edge written after a clone copies one
// page of ids per endpoint, and an edge written on a page this graph owns
// shifts the rows after it in place. A row returned by Children or Parents is
// therefore valid only until the next write to the graph: a writer must not
// range over a row of the graph it is writing (copy the row first).
//
// Graph is not safe for concurrent mutation; concurrent reads are fine, and
// so is Clone beside them.
type Graph struct {
	labels    *LabelTable
	own       atomic.Pointer[cow.Owner]
	nodeLabel cow.Paged[LabelID]
	children  cow.Rows[NodeID]
	parents   cow.Rows[NodeID]
	numEdges  int
	root      NodeID
	// byLabel lists the nodes of every label: query evaluation seeds from it
	// in O(|matches|) instead of scanning all nodes.
	byLabel LabelLists
}

// New returns an empty graph with a fresh label table.
func New() *Graph {
	return NewWithLabels(NewLabelTable())
}

// NewWithLabels returns an empty graph that shares the given label table.
func NewWithLabels(t *LabelTable) *Graph {
	return &Graph{labels: t, root: InvalidNode}
}

// FromCSR builds a whole graph at once, the one constructor that does: node n
// is labeled labels[n], an id of tab, which the graph shares; its children
// are children.Row(n); and root is its root, or InvalidNode for none. Rows
// must be strictly ascending and every id in range, or FromCSR answers an
// error. The parents are children's transpose and the per-label lists a
// counting sort of labels (MakeLabelLists). The adjacency pages lie over
// children's flat arrays and the transpose's (cow.MakeRows) and the labels
// fill a column from cow.Make, so the graph copies no row. It keeps
// children's arrays: the caller must not write them afterwards.
func FromCSR(tab *LabelTable, labels []LabelID, root NodeID, children CSR) (*Graph, error) {
	n := len(labels)
	if children.NumNodes() != n || root < InvalidNode || int(root) >= n {
		return nil, fmt.Errorf("graph: %d labels, %d rows and root %d do not make a graph", n, children.NumNodes(), root)
	}
	for i, l := range labels {
		if uint(l) >= uint(tab.Len()) {
			return nil, fmt.Errorf("graph: node %d has label %d out of range [0,%d)", i, l, tab.Len())
		}
		row := children.Row(NodeID(i))
		for j, c := range row {
			if uint(c) >= uint(n) || j > 0 && row[j-1] >= c {
				return nil, fmt.Errorf("graph: children of %d not strictly ascending in [0,%d) at %d", i, n, j)
			}
		}
	}
	parents := Transpose(n, children.Row)
	g := &Graph{
		labels:    tab,
		nodeLabel: cow.Make[LabelID](n),
		children:  cow.MakeRows(children.offsets, children.edges),
		parents:   cow.MakeRows(parents.offsets, parents.edges),
		numEdges:  parents.NumEdges(),
		root:      root,
		byLabel:   MakeLabelLists(tab.Len(), n, func(i NodeID) LabelID { return labels[i] }),
	}
	for i, l := range labels {
		*g.nodeLabel.Mut(nil, i) = l
	}
	return g, nil
}

// Labels returns the label table shared by this graph.
func (g *Graph) Labels() *LabelTable { return g.labels }

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.nodeLabel.Len() }

// NumEdges returns the number of (distinct) directed edges.
func (g *Graph) NumEdges() int { return g.numEdges }

// AddNode creates a node with the given label name and returns its id.
func (g *Graph) AddNode(label string) NodeID {
	return g.AddNodeID(g.labels.Intern(label))
}

// AddNodeID creates a node with an already-interned label.
func (g *Graph) AddNodeID(label LabelID) NodeID {
	if label < 0 || int(label) >= g.labels.Len() {
		panic(fmt.Sprintf("graph: AddNodeID with foreign label id %d", label))
	}
	id := NodeID(g.nodeLabel.Len())
	own := g.own.Load()
	g.nodeLabel.Append(own, label)
	g.children.Append(own)
	g.parents.Append(own)
	g.byLabel.Append(own, label, id)
	return id
}

// AddRoot creates the distinguished root node (label ROOT) and records it.
// It panics if a root already exists.
func (g *Graph) AddRoot() NodeID {
	if g.root != InvalidNode {
		panic("graph: AddRoot called twice")
	}
	g.root = g.AddNode(RootLabel)
	return g.root
}

// Root returns the root node, or InvalidNode if none was set.
func (g *Graph) Root() NodeID { return g.root }

// AddEdge inserts the directed edge from -> to. Duplicate edges are ignored;
// the return value reports whether the edge was newly inserted. Adjacency
// lists are kept in ascending order, so traversal order — and therefore the
// cost model — is canonical: independent of the order edges were added
// (loading a persisted graph reproduces costs exactly).
func (g *Graph) AddEdge(from, to NodeID) bool {
	g.checkNode(from)
	g.checkNode(to)
	i, dup := slices.BinarySearch(g.children.Row(int(from)), to)
	if dup {
		return false
	}
	own := g.own.Load()
	g.children.Insert(own, int(from), i, to)
	i, _ = slices.BinarySearch(g.parents.Row(int(to)), from)
	g.parents.Insert(own, int(to), i, from)
	g.numEdges++
	return true
}

// RemoveEdge deletes the directed edge from -> to, reporting whether it
// existed.
func (g *Graph) RemoveEdge(from, to NodeID) bool {
	g.checkNode(from)
	g.checkNode(to)
	i, ok := slices.BinarySearch(g.children.Row(int(from)), to)
	if !ok {
		return false
	}
	own := g.own.Load()
	g.children.Delete(own, int(from), i)
	i, _ = slices.BinarySearch(g.parents.Row(int(to)), from)
	g.parents.Delete(own, int(to), i)
	g.numEdges--
	return true
}

// HasEdge reports whether the directed edge from -> to exists: rows are
// ascending, so it is a binary search of from's children.
func (g *Graph) HasEdge(from, to NodeID) bool {
	_, ok := slices.BinarySearch(g.Children(from), to)
	return ok
}

// Label returns the label id of node n.
func (g *Graph) Label(n NodeID) LabelID {
	return g.nodeLabel.At(g.checkNode(n))
}

// LabelName returns the label string of node n.
func (g *Graph) LabelName(n NodeID) string {
	return g.labels.Name(g.Label(n))
}

// Children returns the out-neighbors of n, ascending. The returned slice is
// owned by the graph: it must not be mutated, and it is valid until the next
// write to the graph. It panics with a cow.RangeError unless n is a node.
func (g *Graph) Children(n NodeID) []NodeID {
	return g.children.Row(int(n))
}

// Parents returns the in-neighbors of n, ascending, on Children's terms.
func (g *Graph) Parents(n NodeID) []NodeID {
	return g.parents.Row(int(n))
}

// NodesByLabel returns, for every label id, the list of nodes carrying it.
// The outer slice is indexed by LabelID. The slices are fresh copies of the
// maintained label lists and may be retained by the caller.
func (g *Graph) NodesByLabel() [][]NodeID {
	out := make([][]NodeID, g.labels.Len())
	for l := range out {
		if list := g.byLabel.Of(LabelID(l)); list.Len() > 0 {
			out[l] = list.AppendTo(nil)
		}
	}
	return out
}

// NodesWithLabel returns the nodes carrying label l in ascending order: the
// label list that seeds query evaluation, read with Len and At. It
// shares the graph's pages and must not be written. Unknown labels
// (including InvalidLabel) return an empty list.
func (g *Graph) NodesWithLabel(l LabelID) cow.Paged[NodeID] { return g.byLabel.Of(l) }

// NumLabels returns the number of labels interned in the shared table.
func (g *Graph) NumLabels() int { return g.labels.Len() }

// Clone returns an independent copy in constant time: every column and the
// label table are shared until either side writes them, label ids preserved
// (queries parsed against the original stay valid; labels interned afterwards
// are private to the side that interned them). A write through either graph
// is never visible through the other. Clone only reads the receiver apart
// from retiring its write tokens, so a published graph may be cloned beside
// its readers and beside other Clone calls.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		labels:    g.labels.Clone(),
		nodeLabel: g.nodeLabel.Clone(),
		children:  g.children.Clone(),
		parents:   g.parents.Clone(),
		numEdges:  g.numEdges,
		root:      g.root,
		byLabel:   g.byLabel.Clone(),
	}
	c.own.Store(new(cow.Owner))
	g.own.Store(new(cow.Owner))
	return c
}

// ErrNoRoot is returned by operations that require a rooted graph.
var ErrNoRoot = errors.New("graph: no root node set")

// Validate performs structural sanity checks: adjacency symmetry and
// ordering, edge count, label lists and root validity. It is intended for
// tests and for validating loaded data, not for hot paths.
func (g *Graph) Validate() error {
	if g.root != InvalidNode {
		if int(g.root) >= g.NumNodes() {
			return fmt.Errorf("graph: root %d out of range", g.root)
		}
	}
	fwd := 0
	for n := 0; n < g.NumNodes(); n++ {
		row := g.children.Row(n)
		for i, c := range row {
			if int(c) >= g.NumNodes() {
				return fmt.Errorf("graph: edge %d->%d points past node range", n, c)
			}
			if i > 0 && row[i-1] >= c {
				return fmt.Errorf("graph: children of %d not strictly ascending at %d", n, i)
			}
			if _, ok := slices.BinarySearch(g.parents.Row(int(c)), NodeID(n)); !ok {
				return fmt.Errorf("graph: edge %d->%d missing reverse adjacency", n, c)
			}
			fwd++
		}
	}
	bwd := 0
	for n := 0; n < g.NumNodes(); n++ {
		row := g.parents.Row(n)
		for i := 1; i < len(row); i++ {
			if row[i-1] >= row[i] {
				return fmt.Errorf("graph: parents of %d not strictly ascending at %d", n, i)
			}
		}
		bwd += len(row)
	}
	if fwd != g.numEdges || bwd != g.numEdges {
		return fmt.Errorf("graph: edge count mismatch: children %d, parents %d, counter %d",
			fwd, bwd, g.numEdges)
	}
	if err := g.byLabel.Check(g.NumNodes(), g.Label); err != nil {
		return fmt.Errorf("graph: %w", err)
	}
	return nil
}

// checkNode panics unless n is a node of g and returns n as a column index.
// Panicking with a value (formatted only if it is ever printed) keeps the
// check, and with it Label, within the inlining budget; Children and Parents
// leave the check to cow.Rows.Row, which does the same.
func (g *Graph) checkNode(n NodeID) int {
	if uint(n) >= uint(g.nodeLabel.Len()) {
		panic(nodeRangeError{n, g.nodeLabel.Len()})
	}
	return int(n)
}

type nodeRangeError struct {
	n     NodeID
	nodes int
}

func (e nodeRangeError) Error() string {
	return fmt.Sprintf("graph: node id %d out of range [0,%d)", e.n, e.nodes)
}

// CompactReachable returns a new graph containing only the nodes reachable
// from the root (in their original relative order) plus the mapping from old
// node ids to new ones (InvalidNode for dropped nodes). Deleting a subtree
// is "remove its incoming edges, then compact": detached nodes stop being
// query-reachable immediately, and compaction reclaims them.
func (g *Graph) CompactReachable() (*Graph, []NodeID, error) {
	if g.root == InvalidNode {
		return nil, nil, ErrNoRoot
	}
	keep := g.ReachableFrom(g.root)
	mapping := make([]NodeID, g.NumNodes())
	labels := make([]LabelID, 0, len(keep))
	for n := range mapping {
		mapping[n] = InvalidNode
		if keep[NodeID(n)] {
			mapping[n] = NodeID(len(labels))
			labels = append(labels, g.nodeLabel.At(n))
		}
	}
	// The children of a reachable node are reachable, and the renumbering
	// keeps node order, so every kept row maps to an ascending row.
	children := MakeCSR(len(labels), g.numEdges)
	for n, at := range mapping {
		if at != InvalidNode {
			for _, c := range g.children.Row(n) {
				children.Append(mapping[c])
			}
			children.Close(int(at) + 1)
		}
	}
	out, err := FromCSR(g.labels, labels, mapping[g.root], children)
	return out, mapping, err
}
