package cow

import "testing"

func TestPagedSharesUntilWritten(t *testing.T) {
	a := Make[int](3*PageSize + 5)
	for i := 0; i < a.Len(); i++ {
		*a.Mut(nil, i) = i
	}
	b := a.Clone()
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
	if a.pages[1] != b.pages[1] {
		t.Error("an unwritten page was copied")
	}

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
