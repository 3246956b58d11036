package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dkindex/internal/cow"
	"dkindex/internal/cow/cowtest"
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

// listsMember is one container of TestLabelListsInsertRemoveIsolation's
// family: label lists, the token their container holds, and the label of
// every node they should list (InvalidLabel for an unlisted one).
type listsMember struct {
	ls     LabelLists
	own    *cow.Owner
	labels []LabelID
}

// TestLabelListsInsertRemoveIsolation runs Insert and Remove, the writes an
// index graph that renumbers its nodes makes, through a family of
// structurally sharing label lists (see cowtest.Isolation): every list must
// stay the ascending list of exactly the nodes its member's model gives the
// label, and a write through one member must not show through another.
func TestLabelListsInsertRemoveIsolation(t *testing.T) {
	const nodes, numLabels = 3 * cow.PageSize, 3
	cowtest.Isolation(t, 20, cowtest.Subject[*listsMember]{
		New: func(rng *rand.Rand) *listsMember {
			m := &listsMember{labels: make([]LabelID, nodes)}
			for i := range m.labels {
				m.labels[i] = LabelID(rng.Intn(numLabels))
			}
			m.ls = MakeLabelLists(numLabels, nodes, func(n NodeID) LabelID { return m.labels[n] })
			return m
		},
		Clone: func(m *listsMember) *listsMember {
			c := &listsMember{ls: m.ls.Clone(), own: new(cow.Owner), labels: slices.Clone(m.labels)}
			m.own = new(cow.Owner)
			return c
		},
		Mutate: func(rng *rand.Rand, m *listsMember) {
			for op := 0; op < 8; op++ {
				n := NodeID(rng.Intn(nodes))
				if l := m.labels[n]; l != InvalidLabel {
					m.ls.Remove(m.own, l, n)
					m.labels[n] = InvalidLabel
				} else {
					l = LabelID(rng.Intn(numLabels))
					m.ls.Insert(m.own, l, n)
					m.labels[n] = l
				}
			}
		},
		Fingerprint: func(m *listsMember) []byte {
			var b []byte
			for l := range LabelID(numLabels) {
				list := m.ls.Of(l)
				b = fmt.Appendf(b, "%d=%v ", l, list.AppendTo(nil))
			}
			return b
		},
		Validate: func(m *listsMember) error {
			for l := range LabelID(numLabels) {
				var want []NodeID
				for n, nl := range m.labels {
					if nl == l {
						want = append(want, NodeID(n))
					}
				}
				list := m.ls.Of(l)
				if got := list.AppendTo(nil); !slices.Equal(got, want) {
					return fmt.Errorf("label %d lists %v, want %v", l, got, want)
				}
			}
			return nil
		},
	})
}
