package graph

import (
	"fmt"
	"slices"
	"sort"

	"dkindex/internal/cow"
)

// LabelLists maps every label to the ascending ids of the nodes carrying it:
// the list that seeds query evaluation, kept the same way by the data graph
// (of data nodes) and by the index graph (of index nodes). Node ids are
// assigned ascending and labels never change, so appending on node creation
// keeps every list sorted; an index graph that renumbers nodes (Algorithm 3's
// in-place merge) removes and inserts instead. Each list is a copy-on-write
// column of its own (internal/cow): Clone copies nothing, and the first
// append to a label after a clone copies one page of its list, not the whole
// list.
type LabelLists struct {
	lists cow.Paged[cow.Paged[NodeID]]
}

// MakeLabelLists builds the lists of nodes 0..n-1, node i carrying label(i),
// in one counting sort. Every label must lie in [0, numLabels). Like
// cow.Make's, the pages belong to the nil token.
func MakeLabelLists(numLabels, n int, label func(NodeID) LabelID) LabelLists {
	counts := make([]int, numLabels)
	for i := range n {
		counts[label(NodeID(i))]++
	}
	ls := LabelLists{cow.Make[cow.Paged[NodeID]](numLabels)}
	for l, c := range counts {
		*ls.lists.Mut(nil, l) = cow.Make[NodeID](c)
	}
	for i := n - 1; i >= 0; i-- { // backwards, so counts end as each list's start
		l := label(NodeID(i))
		counts[l]--
		*ls.lists.Mut(nil, int(l)).Mut(nil, counts[l]) = NodeID(i)
	}
	return ls
}

// Append lists node n under label l for the holder of own; n must exceed
// every node already listed there.
func (ls *LabelLists) Append(own *cow.Owner, l LabelID, n NodeID) {
	for int(l) >= ls.lists.Len() {
		ls.lists.Append(own, cow.Paged[NodeID]{})
	}
	ls.lists.Mut(own, int(l)).Append(own, n)
}

// Insert lists node n under label l for the holder of own, at its place in
// the ascending list: the ids above it move up one.
func (ls *LabelLists) Insert(own *cow.Owner, l LabelID, n NodeID) {
	ls.Append(own, l, n)
	list := ls.lists.Mut(own, int(l))
	i := list.Len() - 1
	for ; i > 0 && list.At(i-1) > n; i-- {
		*list.Mut(own, i) = list.At(i - 1)
	}
	*list.Mut(own, i) = n
}

// Remove unlists node n, which label l's list holds, for the holder of own:
// the ids above it move down one.
func (ls *LabelLists) Remove(own *cow.Owner, l LabelID, n NodeID) {
	list := ls.lists.Mut(own, int(l))
	i := sort.Search(list.Len(), func(i int) bool { return list.At(i) >= n })
	for ; i+1 < list.Len(); i++ {
		*list.Mut(own, i) = list.At(i + 1)
	}
	list.Truncate(i)
}

// Of returns the nodes carrying label l in ascending order, read with Len and
// At. It shares the lists' pages and must not be written. Unknown labels
// (including InvalidLabel) return an empty list.
func (ls *LabelLists) Of(l LabelID) cow.Paged[NodeID] {
	if l < 0 || int(l) >= ls.lists.Len() {
		return cow.Paged[NodeID]{}
	}
	return ls.lists.At(int(l))
}

// Clone returns lists sharing everything with ls; the caller retires both
// sides' tokens, as for any cow column.
func (ls *LabelLists) Clone() LabelLists { return LabelLists{ls.lists.Clone()} }

// Check re-derives the lists of nodes 0..n-1, node i carrying label(i), and
// reports the first label whose list differs.
func (ls *LabelLists) Check(n int, label func(NodeID) LabelID) error {
	want := make([][]NodeID, ls.lists.Len())
	for i := range n {
		l := label(NodeID(i))
		if uint(l) >= uint(len(want)) {
			return fmt.Errorf("no list for label %d of node %d", l, i)
		}
		want[l] = append(want[l], NodeID(i))
	}
	for l, w := range want {
		list := ls.lists.At(l)
		if got := list.AppendTo(nil); !slices.Equal(got, w) {
			return fmt.Errorf("list of label %d is %v, want %v", l, got, w)
		}
	}
	return nil
}
