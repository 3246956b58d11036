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
// share its table so LabelIDs are comparable across them; Clone copies it,
// preserving ids).
//
// Node labels and both adjacency directions live in copy-on-write pages
// (internal/cow): Clone copies page tables only, and a write copies the page
// it lands in unless this graph already owns it. Adjacency rows are kept
// ascending, and a row with spare capacity is referenced by exactly one
// page — copying a page clips every row to its length — so a row is edited
// in place only when no other graph can see it.
//
// Graph is not safe for concurrent mutation; concurrent reads are fine, and
// so is Clone beside them.
type Graph struct {
	labels    *LabelTable
	own       atomic.Pointer[cow.Owner]
	nodeLabel cow.Paged[LabelID]
	children  cow.Paged[[]NodeID]
	parents   cow.Paged[[]NodeID]
	numEdges  int
	root      NodeID
	// byLabel[l] lists the nodes carrying label l in ascending order (node
	// ids are assigned ascending and labels never change, so appending on
	// node creation keeps the lists sorted). Query evaluation seeds from
	// these posting lists in O(|matches|) instead of scanning all nodes.
	// A clone's lists are clipped to their length, so the first append to a
	// label on either side leaves the other side's list as it was.
	byLabel [][]NodeID
}

// clipRows marks every row of a freshly copied adjacency page as shared; it
// is the OnCopy hook of both adjacency columns.
func clipRows(rows *[cow.PageSize][]NodeID) {
	for i, r := range rows {
		rows[i] = r[:len(r):len(r)]
	}
}

// New returns an empty graph with a fresh label table.
func New() *Graph {
	return NewWithLabels(NewLabelTable())
}

// NewWithLabels returns an empty graph that shares the given label table.
func NewWithLabels(t *LabelTable) *Graph {
	g := &Graph{labels: t, root: InvalidNode}
	g.children.OnCopy = clipRows
	g.parents.OnCopy = clipRows
	return g
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
	g.children.Append(own, nil)
	g.parents.Append(own, nil)
	for int(label) >= len(g.byLabel) {
		g.byLabel = append(g.byLabel, nil)
	}
	g.byLabel[label] = append(g.byLabel[label], id)
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

// SetRoot marks an existing node as the root.
func (g *Graph) SetRoot(n NodeID) {
	g.checkNode(n)
	g.root = n
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
	i, dup := slices.BinarySearch(g.children.At(int(from)), to)
	if dup {
		return false
	}
	own := g.own.Load()
	row := g.children.Mut(own, int(from))
	*row = slices.Insert(*row, i, to)
	row = g.parents.Mut(own, int(to))
	i, _ = slices.BinarySearch(*row, from)
	*row = slices.Insert(*row, i, from)
	g.numEdges++
	return true
}

// RemoveEdge deletes the directed edge from -> to, reporting whether it
// existed.
func (g *Graph) RemoveEdge(from, to NodeID) bool {
	g.checkNode(from)
	g.checkNode(to)
	i, ok := slices.BinarySearch(g.children.At(int(from)), to)
	if !ok {
		return false
	}
	own := g.own.Load()
	row := g.children.Mut(own, int(from))
	*row = removeAt(*row, i)
	row = g.parents.Mut(own, int(to))
	i, _ = slices.BinarySearch(*row, from)
	*row = removeAt(*row, i)
	g.numEdges--
	return true
}

// removeAt deletes s[i]. A row without spare capacity may be shared with
// another graph's page (see Graph), so it is rebuilt instead of shifted.
func removeAt(s []NodeID, i int) []NodeID {
	if cap(s) > len(s) {
		return slices.Delete(s, i, i+1)
	}
	if len(s) == 1 {
		return nil
	}
	out := make([]NodeID, len(s)-1)
	copy(out[copy(out, s[:i]):], s[i+1:])
	return out
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

// Children returns the out-neighbors of n. The returned slice is owned by the
// graph and must not be mutated.
func (g *Graph) Children(n NodeID) []NodeID {
	return g.children.At(g.checkNode(n))
}

// Parents returns the in-neighbors of n. The returned slice is owned by the
// graph and must not be mutated.
func (g *Graph) Parents(n NodeID) []NodeID {
	return g.parents.At(g.checkNode(n))
}

// OutDegree returns the number of children of n.
func (g *Graph) OutDegree(n NodeID) int { return len(g.Children(n)) }

// InDegree returns the number of parents of n.
func (g *Graph) InDegree(n NodeID) int { return len(g.Parents(n)) }

// NodesByLabel returns, for every label id, the list of nodes carrying it.
// The outer slice is indexed by LabelID. The slices are fresh copies of the
// maintained posting lists and may be retained by the caller.
func (g *Graph) NodesByLabel() [][]NodeID {
	out := make([][]NodeID, g.labels.Len())
	for l := range g.byLabel {
		if len(g.byLabel[l]) > 0 {
			out[l] = append([]NodeID(nil), g.byLabel[l]...)
		}
	}
	return out
}

// NodesWithLabel returns the nodes carrying label l in ascending order: the
// label posting list that seeds query evaluation. The slice is owned by the
// graph and must not be mutated. Unknown labels (including InvalidLabel)
// return nil.
func (g *Graph) NodesWithLabel(l LabelID) []NodeID {
	if l < 0 || int(l) >= len(g.byLabel) {
		return nil
	}
	return g.byLabel[l]
}

// NumLabels returns the number of labels interned in the shared table.
func (g *Graph) NumLabels() int { return g.labels.Len() }

// Clone returns an independent copy in O(nodes / page size): the page tables
// and posting-list headers are copied, the pages and lists behind them are
// shared until either side writes, and the label table is copied with ids
// preserved (queries parsed against the original stay valid; labels interned
// afterwards are private to the side that interned them). A write through
// either graph is never visible through the other. Clone only reads the
// receiver apart from retiring its write token, so a published graph may be
// cloned beside its readers and beside other Clone calls.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		labels:    g.labels.Clone(),
		nodeLabel: g.nodeLabel.Clone(),
		children:  g.children.Clone(),
		parents:   g.parents.Clone(),
		numEdges:  g.numEdges,
		root:      g.root,
		byLabel:   make([][]NodeID, len(g.byLabel)),
	}
	for l, list := range g.byLabel {
		c.byLabel[l] = list[:len(list):len(list)]
	}
	c.own.Store(new(cow.Owner))
	g.own.Store(new(cow.Owner))
	return c
}

// ErrNoRoot is returned by operations that require a rooted graph.
var ErrNoRoot = errors.New("graph: no root node set")

// Validate performs structural sanity checks: adjacency symmetry and
// ordering, edge count, posting lists and root validity. It is intended for
// tests and for validating loaded data, not for hot paths.
func (g *Graph) Validate() error {
	if g.root != InvalidNode {
		if int(g.root) >= g.NumNodes() {
			return fmt.Errorf("graph: root %d out of range", g.root)
		}
	}
	fwd := 0
	for n := 0; n < g.NumNodes(); n++ {
		row := g.children.At(n)
		for i, c := range row {
			if int(c) >= g.NumNodes() {
				return fmt.Errorf("graph: edge %d->%d points past node range", n, c)
			}
			if i > 0 && row[i-1] >= c {
				return fmt.Errorf("graph: children of %d not strictly ascending at %d", n, i)
			}
			if _, ok := slices.BinarySearch(g.parents.At(int(c)), NodeID(n)); !ok {
				return fmt.Errorf("graph: edge %d->%d missing reverse adjacency", n, c)
			}
			fwd++
		}
	}
	bwd := 0
	for n := 0; n < g.NumNodes(); n++ {
		row := g.parents.At(n)
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
	// Posting lists must exactly re-derive from the node labels.
	want := make([][]NodeID, len(g.byLabel))
	for n := 0; n < g.NumNodes(); n++ {
		l := g.nodeLabel.At(n)
		if int(l) >= len(want) {
			return fmt.Errorf("graph: posting lists missing label %d", l)
		}
		want[l] = append(want[l], NodeID(n))
	}
	for l := range want {
		if len(want[l]) != len(g.byLabel[l]) {
			return fmt.Errorf("graph: posting list for label %d has %d nodes, want %d",
				l, len(g.byLabel[l]), len(want[l]))
		}
		for i := range want[l] {
			if g.byLabel[l][i] != want[l][i] {
				return fmt.Errorf("graph: posting list for label %d wrong at position %d", l, i)
			}
		}
	}
	return nil
}

// checkNode panics unless n is a node of g and returns n as a column index.
// Panicking with a value (formatted only if it is ever printed) keeps the
// check, and with it Label, Children and Parents, within the inlining budget.
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
	for i := range mapping {
		mapping[i] = InvalidNode
	}
	out := NewWithLabels(g.labels)
	for n := 0; n < g.NumNodes(); n++ {
		if keep[NodeID(n)] {
			mapping[n] = out.AddNodeID(g.nodeLabel.At(n))
		}
	}
	out.SetRoot(mapping[g.root])
	for n := 0; n < g.NumNodes(); n++ {
		if mapping[n] == InvalidNode {
			continue
		}
		for _, c := range g.children.At(n) {
			if mapping[c] != InvalidNode {
				out.AddEdge(mapping[n], mapping[c])
			}
		}
	}
	return out, mapping, nil
}
