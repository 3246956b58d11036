package index

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"dkindex/internal/cow"
	"dkindex/internal/graph"
	"dkindex/internal/nodeset"
	"dkindex/internal/partition"
)

// Exact is the local similarity of index nodes whose extents are fully
// bisimilar (1-index nodes): they are sound for path expressions of any
// length. It is large enough that Exact+r never overflows in neighborhood
// arithmetic.
const Exact = math.MaxInt32 / 4

// IndexGraph is a structural summary of a data graph. Index nodes are
// identified by graph.NodeID values local to the index graph (dense, starting
// at 0). Each index node carries a label, an extent (the data nodes it
// represents, kept sorted), and a local similarity k: its extent members are
// mutually k-bisimilar, making the node sound for path expressions up to
// length k (Theorem 1 / D(k) property 3).
//
// Adjacency is maintained with data-edge counts so that extent splits and
// incremental edge additions update the index graph without global rebuilds.
//
// Storage is copy-on-write under one ownership token (internal/cow): the
// per-node, per-label and per-data-node columns are paged, each node's
// adjacency records the token that may write it in place, and every mutator
// goes through mutAdj / Paged.Mut / LabelLists.Append, which copy what the
// token does not own. Clone therefore copies nothing but the struct.
type IndexGraph struct {
	data   *graph.Graph
	own    atomic.Pointer[cow.Owner]
	labels cow.Paged[graph.LabelID]
	// extents holds each node's extent as an immutable succinct set
	// (internal/nodeset): result assembly merges trusted extents in the
	// compressed form. Mutation paths (splits, repartitioning) decompress
	// through extentScratch, recombine, and swap in fresh sets.
	extents cow.Paged[nodeset.Set]
	k       cow.Paged[int]
	adj     cow.Paged[*adjacency]
	// byLabel lists the index nodes of every label, as the data graph lists
	// its nodes: query seeding reads it instead of scanning all nodes.
	byLabel  graph.LabelLists
	numEdges int
	nodeOf   cow.Paged[graph.NodeID] // data node -> index node
	// fbStable records that extents are forward-and-backward bisimilar
	// (F&B classes): branching path queries are then sound on the index
	// alone. Data mutations clear it.
	fbStable bool
	// onSplit, when set, observes every successful SplitNode: orig kept part
	// of its extent, created received the rest. The facade wires this to the
	// lifecycle event stream; construction runs on fresh graphs without the
	// hook, so only post-build adaptation (promotion, updates) is observed.
	onSplit func(orig, created graph.NodeID)
}

// adjacency is one index node's edges and the token that may write them in
// place. children lists the out-neighbours in ascending order and counts, in
// parallel, the data edges from this node's extent into each one's extent
// (all > 0); parents lists the in-neighbours by id alone, so an index edge
// carries one count, on its tail's side. An index edge exists iff it is
// listed.
//
// A record the writer copied shares every slice it has not written yet,
// clipped; owns says which of them were allocated under own and may be
// written in place. A change to a count copies counts alone, and the parents
// list is written only when the index edge set changes.
type adjacency struct {
	own      *cow.Owner
	owns     uint8 // ownChildren | ownCounts | ownParents
	children []graph.NodeID
	counts   []int32
	parents  []graph.NodeID
}

const (
	ownChildren uint8 = 1 << iota
	ownCounts
	ownParents
	ownAll = ownChildren | ownCounts | ownParents
)

// mutCounts returns the counts for writing, copying them first unless the
// record owns them.
func (a *adjacency) mutCounts() []int32 {
	if a.owns&ownCounts == 0 {
		a.counts = slices.Clone(a.counts)
		a.owns |= ownCounts
	}
	return a.counts
}

// mutChildren returns the children for writing, copying them first unless
// the record owns them.
func (a *adjacency) mutChildren() []graph.NodeID {
	if a.owns&ownChildren == 0 {
		a.children = slices.Clone(a.children)
		a.owns |= ownChildren
	}
	return a.children
}

// mutParents returns the parents for writing, copying them first unless the
// record owns them.
func (a *adjacency) mutParents() []graph.NodeID {
	if a.owns&ownParents == 0 {
		a.parents = slices.Clone(a.parents)
		a.owns |= ownParents
	}
	return a.parents
}

// insertAt inserts v at i: in place when the slice is owned, else into a
// fresh copy with the gap already made.
func insertAt[T any](s []T, owned bool, i int, v T) []T {
	if owned {
		return slices.Insert(s, i, v)
	}
	c := make([]T, len(s)+1)
	copy(c, s[:i])
	c[i] = v
	copy(c[i+1:], s[i:])
	return c
}

// deleteAt removes element i: in place when the slice is owned, else into a
// fresh copy without it.
func deleteAt[T any](s []T, owned bool, i int) []T {
	if owned {
		return slices.Delete(s, i, i+1)
	}
	c := make([]T, len(s)-1)
	copy(c, s[:i])
	copy(c[i:], s[i+1:])
	return c
}

// newIndexGraph allocates an index graph of nb nodes over data with empty
// adjacency and no label lists, for FromPartition and Reconstruct to fill in
// and derive. Everything in it belongs to the nil token — the token of a
// graph that has never been cloned — so the builders write it in place.
func newIndexGraph(data *graph.Graph, nb int) *IndexGraph {
	ig := &IndexGraph{
		data:    data,
		labels:  cow.Make[graph.LabelID](nb),
		extents: cow.Make[nodeset.Set](nb),
		k:       cow.Make[int](nb),
		adj:     cow.Make[*adjacency](nb),
		nodeOf:  cow.Make[graph.NodeID](data.NumNodes()),
	}
	recs := make([]adjacency, nb)
	for b := range recs {
		recs[b].owns = ownAll
		*ig.adj.Mut(nil, b) = &recs[b]
	}
	return ig
}

// mutAdj returns index node n's adjacency record for writing, copying the
// record first unless this graph already owns it. A copied record shares the
// slices (see adjacency): the caller copies what it writes.
func (ig *IndexGraph) mutAdj(n graph.NodeID) *adjacency {
	a := ig.adj.At(int(n))
	if own := ig.own.Load(); a.own != own {
		a = &adjacency{own: own, children: slices.Clip(a.children),
			counts: slices.Clip(a.counts), parents: slices.Clip(a.parents)}
		*ig.adj.Mut(own, int(n)) = a
	}
	return a
}

// newAdjacency is the record of a node created under own.
func newAdjacency(own *cow.Owner) *adjacency { return &adjacency{own: own, owns: ownAll} }

// FromPartition materializes the index graph induced by a partition of src.
// kOf supplies the local similarity recorded for each block; blocks become
// index nodes with the same ids.
func FromPartition(src Source, p *partition.Partition, kOf func(partition.BlockID) int) *IndexGraph {
	data := src.Data()
	nb := p.NumBlocks()
	ig := newIndexGraph(data, nb)
	for b := 0; b < nb; b++ {
		mem := p.Members(partition.BlockID(b))
		label := src.Label(mem[0])
		*ig.labels.Mut(nil, b) = label
		*ig.k.Mut(nil, b) = kOf(partition.BlockID(b))
		ext := extentScratchGet()
		for _, m := range mem {
			ext = src.AppendExtent(ext, m)
		}
		slices.Sort(ext)
		*ig.extents.Mut(nil, b) = nodeset.FromSorted(ext)
		for _, d := range ext {
			*ig.nodeOf.Mut(nil, int(d)) = graph.NodeID(b)
		}
		extentScratchPut(ext)
	}
	ig.derive()
	return ig
}

// derive fills in what a freshly allocated graph's labels and extents
// determine: the label lists, and the adjacency from the data edges, counting
// multiplicities.
func (ig *IndexGraph) derive() {
	ig.byLabel = graph.MakeLabelLists(ig.NumLabels(), ig.NumNodes(), ig.Label)
	for u := 0; u < ig.data.NumNodes(); u++ {
		a := ig.nodeOf.At(u)
		for _, v := range ig.data.Children(graph.NodeID(u)) {
			ig.incEdge(a, ig.nodeOf.At(int(v)))
		}
	}
}

// extentScratch recycles the decompression buffers the mutation and
// persistence paths use to materialize extents.
var extentScratch = sync.Pool{New: func() any {
	b := make([]graph.NodeID, 0, 256)
	return &b
}}

func extentScratchGet() []graph.NodeID {
	return (*extentScratch.Get().(*[]graph.NodeID))[:0]
}

func extentScratchPut(b []graph.NodeID) {
	extentScratch.Put(&b)
}

// incEdge counts one more data edge from index node a to index node b.
func (ig *IndexGraph) incEdge(a, b graph.NodeID) { ig.addEdges(a, b, 1) }

// addEdges counts n more data edges from index node a to index node b. Only
// a new index edge writes b's parents.
func (ig *IndexGraph) addEdges(a, b graph.NodeID, n int32) {
	r := ig.mutAdj(a)
	i, ok := slices.BinarySearch(r.children, b)
	if ok {
		r.mutCounts()[i] += n
		return
	}
	r.children = insertAt(r.children, r.owns&ownChildren != 0, i, b)
	r.counts = insertAt(r.counts, r.owns&ownCounts != 0, i, n)
	r.owns |= ownChildren | ownCounts
	ig.numEdges++
	p := ig.mutAdj(b)
	j, _ := slices.BinarySearch(p.parents, a)
	p.parents = insertAt(p.parents, p.owns&ownParents != 0, j, a)
	p.owns |= ownParents
}

// decEdge counts one data edge fewer from a to b; the index edge must exist.
// Only an index edge that disappears writes b's parents.
func (ig *IndexGraph) decEdge(a, b graph.NodeID) {
	i, ok := slices.BinarySearch(ig.Children(a), b)
	if !ok {
		panic(fmt.Sprintf("index: decEdge on absent edge %d->%d", a, b))
	}
	if r := ig.mutAdj(a); r.counts[i] > 1 {
		r.mutCounts()[i]--
		return
	}
	ig.cut(a, i)
	ig.unlistParent(b, a)
}

// cut removes child i of a from a's children, whatever its count, and
// returns the count: the index edge is gone once the caller unlists a from
// the child's parents.
func (ig *IndexGraph) cut(a graph.NodeID, i int) int32 {
	r := ig.mutAdj(a)
	n := r.counts[i]
	r.children = deleteAt(r.children, r.owns&ownChildren != 0, i)
	r.counts = deleteAt(r.counts, r.owns&ownCounts != 0, i)
	r.owns |= ownChildren | ownCounts
	ig.numEdges--
	return n
}

// unlistParent removes a from b's parents.
func (ig *IndexGraph) unlistParent(b, a graph.NodeID) {
	p := ig.mutAdj(b)
	j, _ := slices.BinarySearch(p.parents, a)
	p.parents = deleteAt(p.parents, p.owns&ownParents != 0, j)
	p.owns |= ownParents
}

// Data returns the underlying data graph.
func (ig *IndexGraph) Data() *graph.Graph { return ig.data }

// SetOnSplit installs (or clears, with nil) the split observation hook. The
// hook runs synchronously inside SplitNode after the index is consistent
// again; it must not mutate the index graph. Clone does not carry the hook.
func (ig *IndexGraph) SetOnSplit(fn func(orig, created graph.NodeID)) { ig.onSplit = fn }

// FBStable reports whether extents are known to be forward-and-backward
// bisimilar (set by BuildFB, cleared by data mutations).
func (ig *IndexGraph) FBStable() bool { return ig.fbStable }

// markFBStable is used by BuildFB.
func (ig *IndexGraph) markFBStable() { ig.fbStable = true }

// NumNodes returns the number of index nodes (the paper's index size metric).
func (ig *IndexGraph) NumNodes() int { return ig.labels.Len() }

// NumEdges returns the number of distinct index edges.
func (ig *IndexGraph) NumEdges() int { return ig.numEdges }

// Label returns the label of index node n.
func (ig *IndexGraph) Label(n graph.NodeID) graph.LabelID { return ig.labels.At(int(n)) }

// K returns the local similarity of index node n.
func (ig *IndexGraph) K(n graph.NodeID) int { return ig.k.At(int(n)) }

// SetK sets the local similarity of index node n.
func (ig *IndexGraph) SetK(n graph.NodeID, k int) { *ig.k.Mut(ig.own.Load(), int(n)) = k }

// Extent returns the sorted data nodes represented by index node n as a
// freshly allocated slice owned by the caller. Earlier versions returned the
// index's backing slice, which callers could alias and mutate undetected;
// the copy makes the read-only contract structural. Hot paths should prefer
// ExtentSet (no decompression) or AppendExtent (caller-managed buffer).
func (ig *IndexGraph) Extent(n graph.NodeID) []graph.NodeID {
	return ig.extents.At(int(n)).AppendTo(nil)
}

// ExtentSet returns index node n's extent in its succinct immutable form —
// the zero-copy accessor result assembly merges from.
func (ig *IndexGraph) ExtentSet(n graph.NodeID) nodeset.Set { return ig.extents.At(int(n)) }

// ExtentSize returns the extent cardinality without decompressing it.
func (ig *IndexGraph) ExtentSize(n graph.NodeID) int { return ig.extents.At(int(n)).Len() }

// IndexOf returns the index node whose extent contains data node d.
func (ig *IndexGraph) IndexOf(d graph.NodeID) graph.NodeID { return ig.nodeOf.At(int(d)) }

// Children returns the out-neighbors of index node n in ascending order.
// The slice is owned by the index graph and must not be mutated.
func (ig *IndexGraph) Children(n graph.NodeID) []graph.NodeID {
	return ig.adj.At(int(n)).children
}

// Parents returns the in-neighbors of index node n in ascending order. The
// slice is owned by the index graph and must not be mutated.
func (ig *IndexGraph) Parents(n graph.NodeID) []graph.NodeID {
	return ig.adj.At(int(n)).parents
}

// HasEdge reports whether the index edge a -> b exists: a binary search of
// a's children.
func (ig *IndexGraph) HasEdge(a, b graph.NodeID) bool {
	_, ok := slices.BinarySearch(ig.Children(a), b)
	return ok
}

// NodesWithLabel returns the index nodes carrying label l in ascending order,
// read with Len and At, exactly as graph.Graph.NodesWithLabel returns data
// nodes. It shares the graph's pages and must not be written. Unknown labels
// (including graph.InvalidLabel) return an empty list.
func (ig *IndexGraph) NodesWithLabel(l graph.LabelID) cow.Paged[graph.NodeID] {
	return ig.byLabel.Of(l)
}

// NumLabels returns the number of labels interned in the shared table.
func (ig *IndexGraph) NumLabels() int { return ig.data.Labels().Len() }

// AppendExtent implements Source, allowing an IndexGraph to serve as the
// construction source for another index (subgraph addition, demotion). The
// extent is decompressed directly into dst in ascending order.
func (ig *IndexGraph) AppendExtent(dst []graph.NodeID, n graph.NodeID) []graph.NodeID {
	return ig.extents.At(int(n)).AppendTo(dst)
}

var _ Source = (*IndexGraph)(nil)

// Clone returns an independent copy of the index graph and its data graph
// in constant time: columns, adjacency and label lists are shared until
// either side writes them (see IndexGraph), extent sets are immutable and
// always shared. A write through either side — to the summary or to the data
// graph under it — is never visible through the other. Like graph.Clone it
// only reads the receiver apart from retiring its write token, so a
// published snapshot may be cloned beside its readers. The split hook is not
// copied — instrumentation re-attaches per mutation.
func (ig *IndexGraph) Clone() *IndexGraph {
	c := &IndexGraph{
		data:     ig.data.Clone(),
		labels:   ig.labels.Clone(),
		extents:  ig.extents.Clone(),
		k:        ig.k.Clone(),
		adj:      ig.adj.Clone(),
		byLabel:  ig.byLabel.Clone(),
		numEdges: ig.numEdges,
		nodeOf:   ig.nodeOf.Clone(),
		fbStable: ig.fbStable,
	}
	c.own.Store(new(cow.Owner))
	ig.own.Store(new(cow.Owner))
	return c
}

// Validate checks all structural invariants: extents partition the data
// nodes, labels are homogeneous, edge counts equal data-edge multiplicities,
// and nodeOf is consistent. Intended for tests.
func (ig *IndexGraph) Validate() error {
	seen := make([]bool, ig.data.NumNodes())
	for b := 0; b < ig.NumNodes(); b++ {
		ext := ig.extents.At(b)
		if ext.IsEmpty() {
			return fmt.Errorf("index: empty extent at node %d", b)
		}
		var extErr error
		ext.Iterate(func(d graph.NodeID) bool {
			if seen[d] {
				extErr = fmt.Errorf("index: data node %d in two extents", d)
				return false
			}
			seen[d] = true
			if ig.IndexOf(d) != graph.NodeID(b) {
				extErr = fmt.Errorf("index: nodeOf[%d]=%d, listed in %d", d, ig.IndexOf(d), b)
				return false
			}
			if ig.data.Label(d) != ig.labels.At(b) {
				extErr = fmt.Errorf("index: node %d extent mixes labels", b)
				return false
			}
			return true
		})
		if extErr != nil {
			return extErr
		}
	}
	for d, ok := range seen {
		if !ok {
			return fmt.Errorf("index: data node %d not covered by any extent", d)
		}
	}
	// Recount edges from scratch.
	want := make(map[[2]graph.NodeID]int)
	for u := 0; u < ig.data.NumNodes(); u++ {
		for _, v := range ig.data.Children(graph.NodeID(u)) {
			want[[2]graph.NodeID{ig.nodeOf.At(u), ig.IndexOf(v)}]++
		}
	}
	got, mirrored := 0, 0
	for a := 0; a < ig.NumNodes(); a++ {
		adj := ig.adj.At(a)
		if len(adj.children) != len(adj.counts) {
			return fmt.Errorf("index: node %d lists %d children and %d counts", a, len(adj.children), len(adj.counts))
		}
		for _, ids := range [][]graph.NodeID{adj.children, adj.parents} {
			for i := 1; i < len(ids); i++ {
				if ids[i-1] >= ids[i] {
					return fmt.Errorf("index: adjacency of %d not strictly ascending at %d", a, i)
				}
			}
		}
		for i, b := range adj.children {
			cnt := int(adj.counts[i])
			if cnt <= 0 {
				return fmt.Errorf("index: non-positive edge count %d->%d", a, b)
			}
			if w := want[[2]graph.NodeID{graph.NodeID(a), b}]; w != cnt {
				return fmt.Errorf("index: edge %d->%d count %d, want %d", a, b, cnt, w)
			}
			if _, ok := slices.BinarySearch(ig.Parents(b), graph.NodeID(a)); !ok {
				return fmt.Errorf("index: edge %d->%d missing from %d's parents", a, b, b)
			}
			got++
		}
		mirrored += len(adj.parents)
	}
	if got != len(want) {
		return fmt.Errorf("index: %d edges present, want %d", got, len(want))
	}
	if got != ig.numEdges || mirrored != got {
		return fmt.Errorf("index: numEdges=%d, actual %d, %d listed as parents", ig.numEdges, got, mirrored)
	}
	if err := ig.byLabel.Check(ig.NumNodes(), ig.Label); err != nil {
		return fmt.Errorf("index: %w", err)
	}
	return nil
}

// MemStats reports the physical memory held by the succinct extents, beside
// the bytes an uncompressed [][]graph.NodeID representation would occupy (one
// slice header plus 4 bytes per member for each extent) — the
// compression-ratio denominator exported to observability — and the label
// lists' payload.
type MemStats struct {
	Extents nodeset.Stats
	// ExtentRawBytes is the extents' raw-slice equivalent.
	ExtentRawBytes int
	// Postings is the label lists' payload: 4 bytes per listed index node.
	Postings int
}

// ExtentBytes returns the resident bytes of all extent sets.
func (m MemStats) ExtentBytes() int { return m.Extents.Bytes() }

// PostingBytes returns the label lists' payload bytes.
func (m MemStats) PostingBytes() int { return m.Postings }

const sliceHeaderBytes = 24

// MemStats computes the current footprint in one pass over the extents.
func (ig *IndexGraph) MemStats() MemStats {
	m := MemStats{Postings: 4 * ig.NumNodes()}
	for b := 0; b < ig.NumNodes(); b++ {
		ext := ig.extents.At(b)
		ext.AddStats(&m.Extents)
		m.ExtentRawBytes += sliceHeaderBytes + 4*ext.Len()
	}
	return m
}
