package index

import (
	"dkindex/internal/cow"
	"dkindex/internal/graph"
	"dkindex/internal/nodeset"
)

// SplitNode divides index node b: extent members satisfying inSet move to a
// fresh index node, the rest stay in b. The new node inherits b's label and
// local similarity (Algorithm 2: "set the local similarity requirements to
// newly created index nodes by inheritance"). Index adjacency is repaired
// incrementally by reclassifying only the data edges incident to the moved
// extent members, so the cost is proportional to the moved extent's degree —
// not to the index size.
//
// It returns the new node id and true, or InvalidNode and false when the
// split is degenerate (no member or every member satisfies inSet).
func (ig *IndexGraph) SplitNode(b graph.NodeID, inSet func(graph.NodeID) bool) (graph.NodeID, bool) {
	// Decompress b's extent and partition it; both halves inherit its
	// ascending order, so re-encoding needs no sort.
	ext := extentScratchGet()
	ext = ig.AppendExtent(ext, b)
	var ins, outs []graph.NodeID
	for _, d := range ext {
		if inSet(d) {
			ins = append(ins, d)
		} else {
			outs = append(outs, d)
		}
	}
	if len(ins) == 0 || len(outs) == 0 {
		extentScratchPut(ext)
		return graph.InvalidNode, false
	}
	own := ig.own.Load()
	nb := graph.NodeID(ig.NumNodes())
	ig.labels.Append(own, ig.Label(b))
	ig.k.Append(own, ig.K(b))
	*ig.extents.Mut(own, int(b)) = nodeset.FromSorted(outs)
	ig.extents.Append(own, nodeset.FromSorted(ins))
	extentScratchPut(ext)
	ig.adj.Append(own, newAdjacency(own))
	ig.byLabel.Append(own, ig.Label(b), nb)

	moved := make(map[graph.NodeID]bool, len(ins))
	for _, d := range ins {
		moved[d] = true
		*ig.nodeOf.Mut(own, int(d)) = nb
	}

	// Every data edge with a moved endpoint changes index classification.
	// Collect them once (an edge between two moved nodes appears from both
	// sides; the set dedupes it).
	type dedge struct{ u, v graph.NodeID }
	affected := make(map[dedge]struct{})
	for _, d := range ins {
		for _, p := range ig.data.Parents(d) {
			affected[dedge{p, d}] = struct{}{}
		}
		for _, c := range ig.data.Children(d) {
			affected[dedge{d, c}] = struct{}{}
		}
	}
	oldOf := func(n graph.NodeID) graph.NodeID {
		if moved[n] {
			return b
		}
		return ig.IndexOf(n)
	}
	for e := range affected {
		ig.decEdge(oldOf(e.u), oldOf(e.v))
		ig.incEdge(ig.IndexOf(e.u), ig.IndexOf(e.v))
	}
	if ig.onSplit != nil {
		ig.onSplit(b, nb)
	}
	return nb, true
}

// SplitBySuccOf splits index node v against splitter index node w, exactly
// as the construction and promoting algorithms require: extent(v) is divided
// into extent(v) ∩ Succ(extent(w)) and the rest. Returns the new node id (the
// intersection part) and whether a split happened.
func (ig *IndexGraph) SplitBySuccOf(v, w graph.NodeID) (graph.NodeID, bool) {
	succ := make(map[graph.NodeID]bool)
	ig.ExtentSet(w).Iterate(func(d graph.NodeID) bool {
		for _, c := range ig.data.Children(d) {
			succ[c] = true
		}
		return true
	})
	return ig.SplitNode(v, func(d graph.NodeID) bool { return succ[d] })
}

// IsolateDataNode splits data node d into a singleton index node and returns
// it. If d is already alone in its extent, its index node is returned
// unchanged.
func (ig *IndexGraph) IsolateDataNode(d graph.NodeID) graph.NodeID {
	b := ig.IndexOf(d)
	if ig.ExtentSize(b) == 1 {
		return b
	}
	nb, ok := ig.SplitNode(b, func(n graph.NodeID) bool { return n == d })
	if !ok {
		panic("index: singleton split failed on multi-member extent")
	}
	return nb
}

// AddDataEdge inserts the data edge u -> v into the underlying data graph
// and mirrors it in the index graph, keeping the summary safe. It returns
// the index endpoints and whether the *index* edge is new. It does not
// adjust local similarities — that is the responsibility of the particular
// index's update algorithm (D(k) Algorithm 5, or the A(k) propagate variant).
func (ig *IndexGraph) AddDataEdge(u, v graph.NodeID) (a, b graph.NodeID, newIndexEdge bool) {
	a, b = ig.IndexOf(u), ig.IndexOf(v)
	if !ig.data.AddEdge(u, v) {
		return a, b, false // duplicate data edge: nothing changes
	}
	ig.fbStable = false // forward structure changed
	newIndexEdge = !ig.HasEdge(a, b)
	ig.incEdge(a, b)
	return a, b, newIndexEdge
}

// RemoveDataEdge deletes the data edge u -> v and mirrors the change in the
// index graph (the index edge disappears when its last data edge does).
// Like AddDataEdge it leaves local similarities to the caller's update
// algorithm. It reports whether the data edge existed.
func (ig *IndexGraph) RemoveDataEdge(u, v graph.NodeID) bool {
	if !ig.data.RemoveEdge(u, v) {
		return false
	}
	ig.fbStable = false
	ig.decEdge(ig.IndexOf(u), ig.IndexOf(v))
	return true
}

// GraftExtent adds data nodes to index node n's extent: ids are ascending
// nodes appended to the data graph since the index last covered it, so they
// are larger than every indexed id and belong to no extent yet. It writes n's
// extent and the new nodes' nodeOf entries and nothing else — no adjacency
// (mirror the nodes' edges with AddDataEdge afterwards) and no local
// similarity, which like AddDataEdge it leaves to the caller's algorithm
// (Algorithm 3's graft, internal/core).
func (ig *IndexGraph) GraftExtent(n graph.NodeID, ids []graph.NodeID) {
	own := ig.own.Load()
	ext := ig.extents.Mut(own, int(n))
	*ext = nodeset.Union(*ext, nodeset.FromSorted(ids))
	ig.cover(own, n, ids)
}

// GraftNode creates an index node with label l and local similarity k whose
// extent is ids (GraftExtent's contract) and returns it.
func (ig *IndexGraph) GraftNode(l graph.LabelID, k int, ids []graph.NodeID) graph.NodeID {
	own := ig.own.Load()
	nb := graph.NodeID(ig.NumNodes())
	ig.labels.Append(own, l)
	ig.k.Append(own, k)
	ig.extents.Append(own, nodeset.FromSorted(ids))
	ig.adj.Append(own, newAdjacency(own))
	ig.byLabel.Append(own, l, nb)
	ig.cover(own, nb, ids)
	return nb
}

// cover points the grafted data nodes ids at index node n, first growing
// nodeOf to the data graph's current size.
func (ig *IndexGraph) cover(own *cow.Owner, n graph.NodeID, ids []graph.NodeID) {
	ig.fbStable = false // the data graph grew
	for ig.nodeOf.Len() < ig.data.NumNodes() {
		ig.nodeOf.Append(own, graph.InvalidNode)
	}
	for _, d := range ids {
		*ig.nodeOf.Mut(own, int(d)) = n
	}
}
