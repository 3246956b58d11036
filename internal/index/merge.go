package index

import (
	"slices"

	"dkindex/internal/cow"
	"dkindex/internal/graph"
	"dkindex/internal/nodeset"
)

// MergeNodes coarsens the index in place: each group lists, ascending, index
// nodes that are to become one, and its first node, the survivor, takes the
// others' extents and their edges with their counts, so the result is the
// index graph FromPartition would materialise for the coarser partition, up
// to node numbering. Labels within a group must agree; local similarities
// are the caller's to set (the survivor keeps its own).
//
// Every absorbed id is then freed: from the lowest up, each is filled by the
// current last node, and the columns are truncated. What a merge writes is
// therefore the absorbed nodes' nodeOf entries, adjacency records and their
// neighbours', and for each moved node its own — not a copy of the index.
func (ig *IndexGraph) MergeNodes(groups [][]graph.NodeID) {
	own := ig.own.Load()
	ig.fbStable = false // coarser classes are no F&B classes
	var freed []graph.NodeID
	ext := extentScratchGet()
	for _, grp := range groups {
		s := grp[0]
		ext = ext[:0]
		for _, a := range grp[1:] {
			ext = ig.AppendExtent(ext, a)
			*ig.extents.Mut(own, int(a)) = nodeset.Set{}
			ig.fold(own, s, a)
			ig.byLabel.Remove(own, ig.Label(a), a)
			freed = append(freed, a)
		}
		slices.Sort(ext)
		for _, d := range ext {
			*ig.nodeOf.Mut(own, int(d)) = s
		}
		e := ig.extents.Mut(own, int(s))
		*e = nodeset.Union(*e, nodeset.FromSorted(ext))
	}
	extentScratchPut(ext)
	slices.Sort(freed)
	ig.free(own, freed)
}

// fold moves index node a's edges onto s, counts and all: a -> c becomes
// s -> c, p -> a becomes p -> s, and a self-loop a -> a becomes s -> s. It
// leaves a without edges.
func (ig *IndexGraph) fold(own *cow.Owner, s, a graph.NodeID) {
	r := ig.adj.At(int(a)) // no longer a's once replaced, so read-only from here
	*ig.adj.Mut(own, int(a)) = newAdjacency(own)
	ig.numEdges -= len(r.children)
	for _, c := range r.children {
		if c != a {
			ig.unlistParent(c, a)
		}
	}
	for _, p := range r.parents {
		if p != a {
			i, _ := slices.BinarySearch(ig.Children(p), a)
			ig.addEdges(p, s, ig.cut(p, i))
		}
	}
	for i, c := range r.children {
		if c == a {
			c = s
		}
		ig.addEdges(s, c, r.counts[i])
	}
}

// free drops the freed nodes, ascending, each without data nodes or edges:
// from the lowest up, each freed id below the final node count is filled by
// the current last node, and the columns are truncated to that count.
func (ig *IndexGraph) free(own *cow.Owner, freed []graph.NodeID) {
	lo, hi, n := 0, len(freed), ig.NumNodes()
	for ; lo < hi; n-- {
		if int(freed[hi-1]) == n-1 {
			hi-- // the last node is freed: drop it
		} else {
			ig.move(own, graph.NodeID(n-1), freed[lo])
			lo++
		}
	}
	ig.labels.Truncate(n)
	ig.k.Truncate(n)
	ig.extents.Truncate(n)
	ig.adj.Truncate(n)
}

// move renumbers node last, the highest live id, as the freed id f: its
// columns, its extent's nodeOf entries and every list that names it. Being
// the highest, last is the last entry of each of those lists.
func (ig *IndexGraph) move(own *cow.Owner, last, f graph.NodeID) {
	l, ext := ig.Label(last), ig.extents.At(int(last))
	*ig.labels.Mut(own, int(f)) = l
	*ig.k.Mut(own, int(f)) = ig.K(last)
	*ig.extents.Mut(own, int(f)) = ext
	*ig.adj.Mut(own, int(f)) = ig.adj.At(int(last))
	ig.byLabel.Remove(own, l, last)
	ig.byLabel.Insert(own, l, f)
	ext.Iterate(func(d graph.NodeID) bool {
		*ig.nodeOf.Mut(own, int(d)) = f
		return true
	})
	r := ig.mutAdj(f)
	for _, c := range r.children {
		if c != last {
			renameLast(ig.mutAdj(c).mutParents(), f)
		}
	}
	for _, p := range r.parents {
		if p != last {
			a := ig.mutAdj(p)
			sinkLast(a.mutCounts(), renameLast(a.mutChildren(), f))
		}
	}
	if n := len(r.children); n > 0 && r.children[n-1] == last { // a self-loop
		sinkLast(r.mutCounts(), renameLast(r.mutChildren(), f))
		renameLast(r.mutParents(), f)
	}
}

// renameLast rewrites the last of ids, its highest, as v, which is lower,
// keeping ids ascending, and returns the position v took.
func renameLast(ids []graph.NodeID, v graph.NodeID) int {
	i, _ := slices.BinarySearch(ids[:len(ids)-1], v)
	ids[len(ids)-1] = v
	sinkLast(ids, i)
	return i
}

// sinkLast moves the last element of s to position i, the elements from i on
// up one.
func sinkLast[T any](s []T, i int) {
	last := s[len(s)-1]
	copy(s[i+1:], s[i:len(s)-1])
	s[i] = last
}
