package index

import (
	"fmt"
	"maps"
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
// per-node and per-data-node columns are paged, each node's adjacency and
// each label's posting builder records the token that may write it in place,
// and every mutator goes through mutAdj / Paged.Mut / appendPosting, which copy
// what the token does not own. Clone therefore copies tables only.
type IndexGraph struct {
	data   *graph.Graph
	own    atomic.Pointer[cow.Owner]
	labels cow.Paged[graph.LabelID]
	// extents holds each node's extent as an immutable succinct set
	// (internal/nodeset): query-side set algebra operates on the compressed
	// form directly. Mutation paths (splits, repartitioning) decompress
	// through extentScratch, recombine, and swap in fresh sets.
	extents cow.Paged[nodeset.Set]
	k       cow.Paged[int]
	adj     []*adjacency
	// byLabel[l] lists index nodes carrying label l in ascending order (new
	// nodes always receive the largest id, so appending keeps lists sorted).
	// Each posting list is a succinct-set builder: the sealed prefix is
	// compressed, the open chunk stays as raw low-16 values, and query
	// seeding reads PostingSet views instead of scanning all nodes.
	byLabel  []posting
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

// adjacency is one index node's edges. children[b] = number of data edges
// from this node's extent into extent(b); parents is the mirror. An index
// edge exists iff its count is > 0. childList/parentList mirror the maps as
// ascending slices, maintained incrementally on edge appearance and
// disappearance so the query hot path never sorts map keys.
type adjacency struct {
	own                   *cow.Owner
	children, parents     map[graph.NodeID]int
	childList, parentList []graph.NodeID
}

// posting is one label's posting-list builder and the token that may append
// to it in place.
type posting struct {
	own *cow.Owner
	b   *nodeset.Builder
}

func newAdjacency(own *cow.Owner) *adjacency {
	return &adjacency{own: own, children: make(map[graph.NodeID]int), parents: make(map[graph.NodeID]int)}
}

// newIndexGraph allocates an index graph of nb nodes over data with empty
// adjacency, for FromPartition and Reconstruct to fill in. Everything in it
// belongs to the nil token — the token of a graph that has never been cloned
// — so the builders write it in place.
func newIndexGraph(data *graph.Graph, nb int) *IndexGraph {
	ig := &IndexGraph{
		data:    data,
		labels:  cow.Make[graph.LabelID](nb),
		extents: cow.Make[nodeset.Set](nb),
		k:       cow.Make[int](nb),
		adj:     make([]*adjacency, nb),
		nodeOf:  cow.Make[graph.NodeID](data.NumNodes()),
	}
	for b := range ig.adj {
		ig.adj[b] = newAdjacency(nil)
	}
	return ig
}

// mutAdj returns index node n's adjacency for writing, copying it first
// unless this graph already owns it.
func (ig *IndexGraph) mutAdj(n graph.NodeID) *adjacency {
	a := ig.adj[n]
	if own := ig.own.Load(); a.own != own {
		a = &adjacency{
			own:        own,
			children:   maps.Clone(a.children),
			parents:    maps.Clone(a.parents),
			childList:  slices.Clone(a.childList),
			parentList: slices.Clone(a.parentList),
		}
		ig.adj[n] = a
	}
	return a
}

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
		ig.appendPosting(label, graph.NodeID(b))
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
	ig.deriveEdges()
	return ig
}

// deriveEdges fills the index adjacency of a freshly allocated graph from the
// data edges, counting multiplicities.
func (ig *IndexGraph) deriveEdges() {
	for u := 0; u < ig.data.NumNodes(); u++ {
		a := ig.nodeOf.At(u)
		for _, v := range ig.data.Children(graph.NodeID(u)) {
			ig.incEdge(a, ig.nodeOf.At(int(v)))
		}
	}
}

// appendPosting records that index node n carries label l. Nodes are created
// with ascending ids, so appending keeps each posting list sorted.
func (ig *IndexGraph) appendPosting(l graph.LabelID, n graph.NodeID) {
	for int(l) >= len(ig.byLabel) {
		ig.byLabel = append(ig.byLabel, posting{})
	}
	p := &ig.byLabel[l]
	if own := ig.own.Load(); p.b == nil {
		*p = posting{own: own, b: new(nodeset.Builder)}
	} else if p.own != own {
		*p = posting{own: own, b: p.b.Clone()}
	}
	p.b.Append(n)
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

func (ig *IndexGraph) incEdge(a, b graph.NodeID) {
	from, to := ig.mutAdj(a), ig.mutAdj(b)
	if from.children[b] == 0 {
		ig.numEdges++
		from.childList = insertSortedIDs(from.childList, b)
		to.parentList = insertSortedIDs(to.parentList, a)
	}
	from.children[b]++
	to.parents[a]++
}

func (ig *IndexGraph) decEdge(a, b graph.NodeID) {
	from, to := ig.mutAdj(a), ig.mutAdj(b)
	c := from.children[b]
	switch {
	case c > 1:
		from.children[b] = c - 1
		to.parents[a] = c - 1
	case c == 1:
		delete(from.children, b)
		delete(to.parents, a)
		from.childList = removeSortedIDs(from.childList, b)
		to.parentList = removeSortedIDs(to.parentList, a)
		ig.numEdges--
	default:
		panic(fmt.Sprintf("index: decEdge on absent edge %d->%d", a, b))
	}
}

// insertSortedIDs inserts id into the ascending slice s.
func insertSortedIDs(s []graph.NodeID, id graph.NodeID) []graph.NodeID {
	i := len(s)
	for i > 0 && s[i-1] > id {
		i--
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = id
	return s
}

// removeSortedIDs deletes one occurrence of id from the ascending slice s.
func removeSortedIDs(s []graph.NodeID, id graph.NodeID) []graph.NodeID {
	for i, v := range s {
		if v == id {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
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
// the zero-copy accessor for set-algebra query primitives.
func (ig *IndexGraph) ExtentSet(n graph.NodeID) nodeset.Set { return ig.extents.At(int(n)) }

// ExtentSize returns the extent cardinality without decompressing it.
func (ig *IndexGraph) ExtentSize(n graph.NodeID) int { return ig.extents.At(int(n)).Len() }

// IndexOf returns the index node whose extent contains data node d.
func (ig *IndexGraph) IndexOf(d graph.NodeID) graph.NodeID { return ig.nodeOf.At(int(d)) }

// Children returns the out-neighbors of index node n in ascending order.
// The slice is owned by the index graph and must not be mutated; it is
// maintained incrementally so the query hot path never sorts map keys.
func (ig *IndexGraph) Children(n graph.NodeID) []graph.NodeID {
	return ig.adj[n].childList
}

// Parents returns the in-neighbors of index node n in ascending order. The
// slice is owned by the index graph and must not be mutated.
func (ig *IndexGraph) Parents(n graph.NodeID) []graph.NodeID {
	return ig.adj[n].parentList
}

// HasEdge reports whether the index edge a -> b exists.
func (ig *IndexGraph) HasEdge(a, b graph.NodeID) bool { return ig.adj[a].children[b] > 0 }

// NodesWithLabel returns the index nodes carrying label l in ascending order
// as a freshly allocated slice owned by the caller. Query evaluation seeds
// from PostingSet instead, which exposes the compressed list without
// materializing it. Unknown labels (including graph.InvalidLabel) return nil.
func (ig *IndexGraph) NodesWithLabel(l graph.LabelID) []graph.NodeID {
	s := ig.PostingSet(l)
	if s.IsEmpty() {
		return nil
	}
	return s.AppendTo(nil)
}

// SealPostings materializes every pending posting-list view. Builders cache
// their View lazily — a write — so a graph about to be shared with lock-free
// readers must seal first: afterwards PostingSet on a quiescent graph is a
// pure read, safe under concurrent readers and cloning writers.
func (ig *IndexGraph) SealPostings() {
	for _, p := range ig.byLabel {
		if p.b != nil {
			p.b.View()
		}
	}
}

// PostingSet returns the posting list for label l as a succinct set view:
// the ascending index nodes carrying l. The view is immutable — later node
// creation never mutates it. Unknown labels return the empty set.
func (ig *IndexGraph) PostingSet(l graph.LabelID) nodeset.Set {
	if l < 0 || int(l) >= len(ig.byLabel) || ig.byLabel[l].b == nil {
		return nodeset.Set{}
	}
	return ig.byLabel[l].b.View()
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
// in O(nodes / page size + index nodes) pointer copies: columns, adjacency
// and posting builders are shared until either side writes them (see
// IndexGraph), extent sets are immutable and always shared. A write through
// either side — to the summary or to the data graph under it — is never
// visible through the other. Like graph.Clone it only reads the receiver
// apart from retiring its write token, so a published snapshot may be cloned
// beside its readers; the receiver's postings must be sealed (SealPostings)
// for that, as for any concurrent read. The split hook is not copied —
// instrumentation re-attaches per mutation.
func (ig *IndexGraph) Clone() *IndexGraph {
	c := &IndexGraph{
		data:     ig.data.Clone(),
		labels:   ig.labels.Clone(),
		extents:  ig.extents.Clone(),
		k:        ig.k.Clone(),
		adj:      slices.Clone(ig.adj),
		byLabel:  slices.Clone(ig.byLabel),
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
	got := 0
	for a := range ig.adj {
		for b, cnt := range ig.adj[a].children {
			if cnt <= 0 {
				return fmt.Errorf("index: non-positive edge count %d->%d", a, b)
			}
			if want[[2]graph.NodeID{graph.NodeID(a), b}] != cnt {
				return fmt.Errorf("index: edge %d->%d count %d, want %d",
					a, b, cnt, want[[2]graph.NodeID{graph.NodeID(a), b}])
			}
			if ig.adj[b].parents[graph.NodeID(a)] != cnt {
				return fmt.Errorf("index: edge %d->%d parent mirror mismatch", a, b)
			}
			got++
		}
	}
	if got != len(want) {
		return fmt.Errorf("index: %d edges present, want %d", got, len(want))
	}
	if got != ig.numEdges {
		return fmt.Errorf("index: numEdges=%d, actual %d", ig.numEdges, got)
	}
	// Adjacency slice mirrors must match the maps, sorted ascending.
	for a, adj := range ig.adj {
		if err := checkMirror(adj.childList, adj.children, "childList", a); err != nil {
			return err
		}
		if err := checkMirror(adj.parentList, adj.parents, "parentList", a); err != nil {
			return err
		}
	}
	// Posting lists must exactly re-derive from the node labels.
	wantPost := make([][]graph.NodeID, len(ig.byLabel))
	for n := 0; n < ig.NumNodes(); n++ {
		l := ig.labels.At(n)
		if int(l) >= len(wantPost) {
			return fmt.Errorf("index: posting lists missing label %d", l)
		}
		wantPost[l] = append(wantPost[l], graph.NodeID(n))
	}
	for l := range wantPost {
		if got := ig.NodesWithLabel(graph.LabelID(l)); !slices.Equal(wantPost[l], got) {
			return fmt.Errorf("index: posting list for label %d is %v, want %v",
				l, got, wantPost[l])
		}
	}
	return nil
}

// MemStats reports the physical memory held by the succinct extents and
// posting lists, alongside the bytes an uncompressed [][]graph.NodeID
// representation would occupy (one slice header plus 4 bytes per member for
// each list) — the compression-ratio denominators exported to observability.
type MemStats struct {
	Extents  nodeset.Stats
	Postings nodeset.Stats
	// ExtentRawBytes / PostingRawBytes are the raw-slice equivalents.
	ExtentRawBytes  int
	PostingRawBytes int
}

// ExtentBytes returns the resident bytes of all extent sets.
func (m MemStats) ExtentBytes() int { return m.Extents.Bytes() }

// PostingBytes returns the resident bytes of all posting lists.
func (m MemStats) PostingBytes() int { return m.Postings.Bytes() }

const sliceHeaderBytes = 24

// MemStats computes the current footprint in one pass over the containers.
func (ig *IndexGraph) MemStats() MemStats {
	var m MemStats
	for b := 0; b < ig.NumNodes(); b++ {
		ext := ig.extents.At(b)
		ext.AddStats(&m.Extents)
		m.ExtentRawBytes += sliceHeaderBytes + 4*ext.Len()
	}
	for _, p := range ig.byLabel {
		if p.b != nil {
			p.b.AddStats(&m.Postings)
			m.PostingRawBytes += sliceHeaderBytes + 4*p.b.Len()
		}
	}
	return m
}

// checkMirror verifies that list holds exactly the keys of m in ascending
// order.
func checkMirror(list []graph.NodeID, m map[graph.NodeID]int, name string, at int) error {
	if len(list) != len(m) {
		return fmt.Errorf("index: %s[%d] has %d entries, map has %d", name, at, len(list), len(m))
	}
	for i, v := range list {
		if i > 0 && list[i-1] >= v {
			return fmt.Errorf("index: %s[%d] not strictly ascending at %d", name, at, i)
		}
		if m[v] <= 0 {
			return fmt.Errorf("index: %s[%d] lists %d absent from map", name, at, v)
		}
	}
	return nil
}
