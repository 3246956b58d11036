package cow

import (
	"math/rand"
	"slices"
	"testing"
)

func TestPagedSharesUntilWritten(t *testing.T) {
	a := Make[int](3*PageSize + 5)
	for i := 0; i < a.Len(); i++ {
		*a.Mut(nil, i) = i
	}
	var b Paged[int]
	if allocs := testing.AllocsPerRun(10, func() { b = a.Clone() }); allocs != 0 {
		t.Errorf("Clone allocates %.0f times, want 0", allocs)
	}
	ownA, ownB := new(Owner), new(Owner)

	copied := 0
	b.OnCopy = func(*[PageSize]int) { copied++ }
	*b.Mut(ownB, 7) = -1
	*b.Mut(ownB, 8) = -2
	if copied != 1 {
		t.Errorf("two writes to one page copied it %d times, want 1", copied)
	}
	if a.At(7) != 7 || a.At(8) != 8 || b.At(7) != -1 || b.At(8) != -2 {
		t.Errorf("write through the clone leaked: a=%d,%d b=%d,%d", a.At(7), a.At(8), b.At(7), b.At(8))
	}
	// The nil token still owns a's pages, and page 1 was never copied, so a
	// write that skips retiring a's token lands in the page both share. This
	// is what retiring prevents.
	*a.Mut(nil, PageSize) = -5
	if b.At(PageSize) != -5 {
		t.Error("an unwritten page was copied")
	}
	*a.Mut(nil, PageSize) = PageSize

	// The receiver of Clone no longer owns what it shares either.
	*a.Mut(ownA, PageSize) = -3
	if b.At(PageSize) != PageSize {
		t.Error("write through the original leaked into the clone")
	}

	// Appends fill the shared last page on a private copy, then open new pages.
	for i := 0; i < PageSize; i++ {
		b.Append(ownB, 1000+i)
	}
	if a.Len() != 3*PageSize+5 || b.Len() != 4*PageSize+5 {
		t.Fatalf("lengths %d / %d", a.Len(), b.Len())
	}
	a.Append(ownA, -4)
	if a.At(3*PageSize+5) != -4 || b.At(3*PageSize+5) != 1000 {
		t.Error("appends after a clone collided")
	}
	for i := 0; i < 3*PageSize+5; i++ {
		if want := i; i != 7 && i != 8 && b.At(i) != want {
			t.Fatalf("b[%d] = %d, want %d", i, b.At(i), want)
		}
	}
}

// member is one container of FuzzPagedAgainstSlices's family: a column, the
// token its container holds, the plain slice it must equal, and which of its
// pages the token owns — the model that says when a write must copy.
type member struct {
	col    Paged[int]
	own    *Owner
	oracle []int
	owned  map[int]bool
}

// FuzzPagedAgainstSlices runs random Make / Append / Mut / Clone sequences
// over a family of columns — clones of clones, sibling clones, originals
// written after they were cloned — long enough to cross page and directory
// chunk boundaries. After every step every member equals its plain-slice
// oracle, and OnCopy has fired exactly once per page a write had to copy.
func FuzzPagedAgainstSlices(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(int64(2), []byte{3, 3, 0, 1, 3, 2, 2, 1, 0, 3})
	f.Add(int64(3), []byte{1, 1, 1, 1, 3, 3, 3, 2, 2, 2, 0, 0})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		if len(script) > 32 {
			script = script[:32]
		}
		rng := rand.New(rand.NewSource(seed))
		copies, want := 0, 0
		onCopy := func(*[PageSize]int) { copies++ }
		newMember := func(n int) *member {
			m := &member{col: Make[int](n), oracle: make([]int, n), owned: map[int]bool{}}
			m.col.OnCopy = onCopy
			for pg := 0; pg<<pageShift < n; pg++ {
				m.owned[pg] = true // Make's pages belong to the nil token
			}
			return m
		}
		// write models one element write by m: it copies the page unless m's
		// token owns it, and a page opened by Append is new, not a copy.
		write := func(m *member, i, v int, opened bool) {
			if pg := i >> pageShift; !m.owned[pg] {
				if !opened {
					want++
				}
				m.owned[pg] = true
			}
			m.oracle[i] = v
		}
		family := []*member{newMember(rng.Intn(3 << dirShift))}
		for _, op := range script {
			m := family[rng.Intn(len(family))]
			switch op % 4 {
			case 0: // Make
				family = append(family, newMember(rng.Intn(2<<dirShift)))
			case 1: // Append a run that may open pages and chunks
				for n := rng.Intn(2 * PageSize * ChunkPages / 3); n > 0; n-- {
					v := rng.Int()
					i := len(m.oracle)
					m.oracle = append(m.oracle, 0)
					m.col.Append(m.own, v)
					write(m, i, v, i&pageMask == 0)
				}
			case 2: // Mut
				for n := 1 + rng.Intn(8); n > 0 && len(m.oracle) > 0; n-- {
					i, v := rng.Intn(len(m.oracle)), rng.Int()
					*m.col.Mut(m.own, i) = v
					write(m, i, v, false)
				}
			case 3: // Clone: both sides end up with fresh tokens
				c := &member{col: m.col.Clone(), own: new(Owner), oracle: slices.Clone(m.oracle), owned: map[int]bool{}}
				m.own, m.owned = new(Owner), map[int]bool{}
				family = append(family, c)
			}
			if copies != want {
				t.Fatalf("OnCopy fired %d times, want %d (one per page copy)", copies, want)
			}
			for k, m := range family {
				if m.col.Len() != len(m.oracle) {
					t.Fatalf("member %d has %d elements, want %d", k, m.col.Len(), len(m.oracle))
				}
				for i, v := range m.oracle {
					if got := m.col.At(i); got != v {
						t.Fatalf("member %d element %d = %d, want %d", k, i, got, v)
					}
				}
				if !slices.Equal(m.col.AppendTo(nil), m.oracle) {
					t.Fatalf("member %d AppendTo disagrees with At", k)
				}
			}
		}
	})
}
