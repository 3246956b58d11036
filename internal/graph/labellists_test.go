package graph

import (
	"slices"
	"testing"

	"dkindex/internal/cow"
)

// TestLabelListsCheck: Check accepts the lists that MakeLabelLists and Append
// build for the same labels and reports a node whose label moved, and a clone
// written under its own token leaves the original's lists alone.
func TestLabelListsCheck(t *testing.T) {
	labels := []LabelID{0, 1, 0, 2, 1}
	label := func(n NodeID) LabelID { return labels[n] }
	ls := MakeLabelLists(3, len(labels), label)
	if err := ls.Check(len(labels), label); err != nil {
		t.Fatalf("built lists: %v", err)
	}
	ls.Append(nil, 2, 5) // MakeLabelLists' pages belong to the nil token
	ls.Append(nil, 4, 6) // a label past the last list grows the lists
	labels = append(labels, 2, 4)
	if err := ls.Check(len(labels), label); err != nil {
		t.Fatalf("appended lists: %v", err)
	}
	if got := ls.Of(2); !slices.Equal(got.AppendTo(nil), []NodeID{3, 5}) {
		t.Fatalf("label 2 lists %v, want [3 5]", got.AppendTo(nil))
	}
	for _, l := range []LabelID{InvalidLabel, 9} {
		if got := ls.Of(l); got.Len() != 0 {
			t.Fatalf("unknown label %d lists %v", l, got.AppendTo(nil))
		}
	}

	c := ls.Clone()
	c.Append(new(cow.Owner), 0, 7)
	orig, cloned := ls.Of(0), c.Of(0)
	if !slices.Equal(orig.AppendTo(nil), []NodeID{0, 2}) || !slices.Equal(cloned.AppendTo(nil), []NodeID{0, 2, 7}) {
		t.Fatalf("label 0 lists %v in the original and %v in the clone, want [0 2] and [0 2 7]", orig.AppendTo(nil), cloned.AppendTo(nil))
	}

	labels[0] = 1
	if err := ls.Check(len(labels), label); err == nil {
		t.Fatal("Check accepted lists that no longer match the labels")
	}
}
