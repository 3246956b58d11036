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

	before := b.pageList()
	*b.Mut(ownB, 7) = -1
	*b.Mut(ownB, 8) = -2
	if copied := copiedPages(before, b.pageList()); copied != 1 {
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
// oracle, and exactly one page was copied per page a write had to copy.
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
		newMember := func(n int) *member {
			m := &member{col: Make[int](n), oracle: make([]int, n), owned: map[int]bool{}}
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
			before := m.col.pageList()
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
			if copies += copiedPages(before, m.col.pageList()); copies != want {
				t.Fatalf("writes copied %d pages, want %d (one per page a non-owner wrote)", copies, want)
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

// TestMakeRowsKeepsTheIDs: MakeRows lays its pages over the caller's ids
// without copying them, clips every page's ids so that no write can reach a
// neighbouring page's, and reads back every row, the empty ones and those
// spanning a whole page included.
func TestMakeRowsKeepsTheIDs(t *testing.T) {
	var rows [][]int32
	for i := range 2*PageSize + 3 {
		switch {
		case i == PageSize-1:
			rows = append(rows, make([]int32, 3*PageSize)) // a high-degree row ending a page
		case i%3 != 0:
			rows = append(rows, []int32{int32(i), int32(i + 1)})
		default:
			rows = append(rows, nil)
		}
	}
	off, ids := csrOf(rows)
	r := MakeRows(off, ids)
	if r.Len() != len(rows) {
		t.Fatalf("Len = %d, want %d", r.Len(), len(rows))
	}
	for i, want := range rows {
		got := r.Row(i)
		if !slices.Equal(got, want) || cap(got) != len(got) {
			t.Fatalf("row %d = %v (cap %d), want %v", i, got, cap(got), want)
		}
		if len(got) > 0 && &got[0] != &ids[off[i]] {
			t.Fatalf("row %d is a copy of the ids, not a view of them", i)
		}
	}
	for pi, pg := range r.pageList() {
		if cap(pg.ids) != len(pg.ids) {
			t.Errorf("page %d keeps %d ids of spare capacity", pi, cap(pg.ids)-len(pg.ids))
		}
	}
	defer func() {
		if _, ok := recover().(RangeError); !ok {
			t.Error("Row(Len()) did not panic with a RangeError")
		}
	}()
	r.Row(r.Len())
}

// csrOf lays rows out back to back: the offsets and ids MakeRows takes.
func csrOf(rows [][]int32) ([]int32, []int32) {
	off, ids := []int32{0}, []int32{}
	for _, row := range rows {
		ids = append(ids, row...)
		off = append(off, int32(len(ids)))
	}
	return off, ids
}

// rowsMember is one container of FuzzRowsAgainstSlices's family, as member
// is of FuzzPagedAgainstSlices's.
type rowsMember struct {
	col    Rows[int32]
	own    *Owner
	oracle [][]int32
	owned  map[int]bool
}

// FuzzRowsAgainstSlices runs random MakeRows / Append / Insert / Delete /
// Clone sequences over a family of row columns, as FuzzPagedAgainstSlices
// does over Paged. After every step every member's rows equal its
// [][]int32 oracle, so a write through one member never changes a sibling's
// rows, and exactly one page was copied per page a non-owner wrote: an
// append writes no page, and a page the writer owns is edited in place.
func FuzzRowsAgainstSlices(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(int64(2), []byte{4, 2, 3, 4, 2, 2, 3, 1, 4, 3, 2})
	f.Add(int64(3), []byte{1, 1, 2, 2, 4, 4, 3, 3, 2, 0, 4, 2})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		if len(script) > 32 {
			script = script[:32]
		}
		rng := rand.New(rand.NewSource(seed))
		copies, want := 0, 0
		newMember := func(n int) *rowsMember {
			rows := make([][]int32, n)
			for i := range rows {
				for d := rng.Intn(4) + rng.Intn(2)*rng.Intn(4*PageSize); d > 0; d-- {
					rows[i] = append(rows[i], rng.Int31())
				}
			}
			off, ids := csrOf(rows)
			m := &rowsMember{col: MakeRows(off, ids), oracle: rows, owned: map[int]bool{}}
			for pg := 0; pg<<pageShift < n; pg++ {
				m.owned[pg] = true // MakeRows's pages belong to the nil token
			}
			return m
		}
		// write models one row write by m: it copies the page unless m's
		// token owns it.
		write := func(m *rowsMember, i int) {
			if pg := i >> pageShift; !m.owned[pg] {
				want++
				m.owned[pg] = true
			}
		}
		family := []*rowsMember{newMember(rng.Intn(3 << dirShift))}
		for _, op := range script {
			m := family[rng.Intn(len(family))]
			before := m.col.pageList()
			switch op % 5 {
			case 0: // MakeRows
				family = append(family, newMember(rng.Intn(2<<dirShift)))
			case 1: // Append a run of empty rows that may open pages and chunks
				for n := rng.Intn(2 * PageSize * ChunkPages / 3); n > 0; n-- {
					if i := len(m.oracle); i&pageMask == 0 {
						m.owned[i>>pageShift] = true // opened, not copied
					}
					m.oracle = append(m.oracle, nil)
					m.col.Append(m.own)
				}
			case 2: // Insert
				for n := 1 + rng.Intn(8); n > 0 && len(m.oracle) > 0; n-- {
					i := rng.Intn(len(m.oracle))
					at, v := rng.Intn(len(m.oracle[i])+1), rng.Int31()
					m.oracle[i] = slices.Insert(m.oracle[i], at, v)
					m.col.Insert(m.own, i, at, v)
					write(m, i)
				}
			case 3: // Delete
				for n := 1 + rng.Intn(8); n > 0 && len(m.oracle) > 0; n-- {
					i := rng.Intn(len(m.oracle))
					if len(m.oracle[i]) == 0 {
						continue
					}
					at := rng.Intn(len(m.oracle[i]))
					m.oracle[i] = slices.Delete(m.oracle[i], at, at+1)
					m.col.Delete(m.own, i, at)
					write(m, i)
				}
			case 4: // Clone: both sides end up with fresh tokens
				oracle := make([][]int32, len(m.oracle))
				for i, row := range m.oracle {
					oracle[i] = slices.Clone(row)
				}
				c := &rowsMember{col: m.col.Clone(), own: new(Owner), oracle: oracle, owned: map[int]bool{}}
				m.own, m.owned = new(Owner), map[int]bool{}
				family = append(family, c)
			}
			if copies += copiedPages(before, m.col.pageList()); copies != want {
				t.Fatalf("writes copied %d pages, want %d (one per page a non-owner wrote)", copies, want)
			}
			for k, m := range family {
				if m.col.Len() != len(m.oracle) {
					t.Fatalf("member %d has %d rows, want %d", k, m.col.Len(), len(m.oracle))
				}
				for i, want := range m.oracle {
					if got := m.col.Row(i); !slices.Equal(got, want) || cap(got) != len(got) {
						t.Fatalf("member %d row %d = %v (cap %d), want %v", k, i, got, cap(got), want)
					}
				}
			}
		}
	})
}
