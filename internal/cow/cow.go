// Package cow is the one copy-on-write mechanism behind snapshot cloning:
// paged columns whose clones share everything until one side writes it.
// There are two kinds of column, Paged (one element per index) and Rows (one
// variable-length row per index), and both keep their pages under the same
// directory of chunks.
//
// Ownership rule. A container (graph.Graph, index.IndexGraph) holds an
// *Owner token; every page, every directory chunk and every column's
// directory records the token of the container that allocated it. A write
// goes in place only when what it lands in carries the writer's current
// token; otherwise it is copied first and the copy takes the writer's token.
// Cloning a container hands the clone a fresh token and replaces the
// receiver's token as well (an atomic store: lock-free readers and concurrent
// clones of a published snapshot only ever race on that one word), so from
// then on neither side owns anything they share and a write through one is
// never visible through the other.
//
// Readers never look at tokens: a page reachable from a published snapshot
// is written in place by nobody, because the only token that could do so is
// held by that snapshot, which the facade never mutates.
package cow

import (
	"fmt"
	"slices"
)

const (
	pageShift = 5
	// PageSize is the number of elements (or rows) per page, and pages are
	// grouped ChunkPages to a directory chunk. A write after a clone copies
	// the column's directory once, then one chunk of pointers and one page
	// per place it lands. Both are constants, not tuning knobs; DESIGN.md
	// ("Storage") says why these two.
	PageSize = 1 << pageShift
	pageMask = PageSize - 1

	chunkShift = 5
	// ChunkPages is the number of pages per directory chunk.
	ChunkPages = 1 << chunkShift
	chunkMask  = ChunkPages - 1
	dirShift   = pageShift + chunkShift
)

// Owner is a write token. The zero-size-avoiding field makes every new(Owner)
// a distinct address. The nil token is a valid owner (a container that was
// never cloned); Clone always installs fresh non-nil tokens on both sides.
type Owner struct{ _ byte }

// table is the directory both kinds of column keep their pages P under:
// chunks of ChunkPages page pointers, each chunk, like the directory itself,
// recording the token that may write it in place. The zero value is empty.
type table[P any] struct {
	dir    []*chunk[P]
	dirOwn *Owner // the token that may write dir's backing array in place
}

type chunk[P any] struct {
	own   *Owner
	pages [ChunkPages]*P
}

// makeTable returns the directory over pages, in order, its chunks allocated
// as one block and owned, like the pages should be, by the nil token.
func makeTable[P any](pages []P) table[P] {
	chunks := make([]chunk[P], (len(pages)+chunkMask)>>chunkShift)
	t := table[P]{dir: make([]*chunk[P], len(chunks))}
	for i := range pages {
		chunks[i>>chunkShift].pages[i&chunkMask] = &pages[i]
	}
	for i := range chunks {
		t.dir[i] = &chunks[i]
	}
	return t
}

// slot returns where page pi's pointer is kept, in a chunk the holder of own
// may write, copying the directory and the chunk on the way unless own
// already owns them. A chunk own owns sits in a directory own owns — only own
// installs either — so the directory is checked only when the chunk has to
// be copied. The caller copies the page itself if it needs to.
func (t *table[P]) slot(own *Owner, pi int) **P {
	c := t.dir[pi>>chunkShift]
	if c.own != own {
		t.mutDir(own)
		c = &chunk[P]{own: own, pages: c.pages}
		t.dir[pi>>chunkShift] = c
	}
	return &c.pages[pi&chunkMask]
}

// mutDir makes the directory writable by own, copying it unless own already
// owns it.
func (t *table[P]) mutDir(own *Owner) {
	if t.dirOwn != own {
		t.dir, t.dirOwn = slices.Clone(t.dir), own
	}
}

// open installs pg, owned by own, as page pi, the first page past the
// column's last, opening a chunk when pi starts one.
func (t *table[P]) open(own *Owner, pi int, pg *P) {
	if pi&chunkMask == 0 {
		t.mutDir(own)
		t.dir = append(t.dir, &chunk[P]{own: own})
	}
	*t.slot(own, pi) = pg
}

type page[T any] struct {
	own *Owner
	v   [PageSize]T
}

// Paged is an append-only column of T stored in fixed-size pages under a
// directory of fixed-size chunks. The zero value is an empty column. A copy
// of the value shares everything with the original and is what Clone
// returns; read through copies, write only through Clone's.
type Paged[T any] struct {
	table[page[T]]
	n int
}

// Make returns a column of n zero elements whose pages belong to the nil
// token, for a container under construction to fill in place. The pages and
// the chunks are allocated as one block each.
func Make[T any](n int) Paged[T] {
	return Paged[T]{makeTable(make([]page[T], (n+pageMask)>>pageShift)), n}
}

// Len returns the number of elements.
func (p *Paged[T]) Len() int { return p.n }

// At returns element i.
func (p *Paged[T]) At(i int) T { return p.dir[i>>dirShift].pages[i>>pageShift&chunkMask].v[i&pageMask] }

// AppendTo appends the column's elements to dst in order.
func (p *Paged[T]) AppendTo(dst []T) []T {
	for i := 0; i < p.n; i += PageSize {
		dst = append(dst, p.dir[i>>dirShift].pages[i>>pageShift&chunkMask].v[:min(PageSize, p.n-i)]...)
	}
	return dst
}

// Clone returns a column sharing everything with p, its directory included,
// and allocates nothing. The caller must retire both sides' tokens (see the
// package comment): the first write on either side then copies the
// directory, and each write the chunk and the page it lands in.
func (p *Paged[T]) Clone() Paged[T] { return *p }

// Mut returns a pointer through which the holder of own may write element i,
// copying the directory, chunk and page on the way unless own already owns
// them. The pointer is valid until the column is next cloned.
func (p *Paged[T]) Mut(own *Owner, i int) *T {
	s := p.slot(own, i>>pageShift)
	if (*s).own != own {
		*s = &page[T]{own: own, v: (*s).v}
	}
	return &(*s).v[i&pageMask]
}

// Append adds v at index Len().
func (p *Paged[T]) Append(own *Owner, v T) {
	i := p.n
	if i&pageMask == 0 {
		p.open(own, i>>pageShift, &page[T]{own: own})
	}
	p.n++
	*p.Mut(own, i) = v
}

// rowPage holds PageSize rows back to back in one slice, compressed sparse
// rows of their own: row j is ids[off[j]:off[j+1]]. The rows past the
// column's last are empty, their offsets len(ids), so appending a row
// writes nothing.
type rowPage[T any] struct {
	own *Owner
	off [PageSize + 1]int32
	ids []T
}

// Rows is an append-only column of rows of T (adjacency lists), stored like
// Paged except that a page is PageSize rows laid out as one offsets array and
// one flat slice. A write after a clone copies the one page it lands in —
// the offsets and that page's ids — where a column of slices would copy the
// page's slice headers and then the row; a write to a page the writer owns
// edits it in place, shifting the rows after the one written. A row read with
// Row is therefore valid only until the next write to the column. The zero
// value is an empty column; Clone and the ownership rule are Paged's.
type Rows[T any] struct {
	table[rowPage[T]]
	n int
}

// MakeRows returns the column of the rows that off and ids lay out in
// compressed sparse form: len(off)-1 rows, row i being ids[off[i]:off[i+1]].
// Each page's ids are the clipped run of ids its rows span and its offsets
// are off's rebased, so the column copies no id: it keeps ids, which the
// caller must not write afterwards. The pages belong to the
// nil token and are allocated as one block, as are the chunks.
func MakeRows[T any](off []int32, ids []T) Rows[T] {
	n := len(off) - 1
	pages := make([]rowPage[T], (n+pageMask)>>pageShift)
	for pi := range pages {
		first, last := pi<<pageShift, min(n, (pi+1)<<pageShift)
		lo, hi := off[first], off[last]
		pg := &pages[pi]
		for j := range pg.off {
			pg.off[j] = off[min(first+j, last)] - lo
		}
		pg.ids = ids[lo:hi:hi]
	}
	return Rows[T]{makeTable(pages), n}
}

// Len returns the number of rows.
func (r *Rows[T]) Len() int { return r.n }

// Row returns row i, and panics unless 0 <= i < Len(). It shares the
// column's storage: it must not be written, and it is valid until the next
// write to the column.
func (r *Rows[T]) Row(i int) []T {
	if uint(i) >= uint(r.n) {
		panic(RangeError{i, r.n})
	}
	pg := r.dir[i>>dirShift].pages[i>>pageShift&chunkMask]
	lo, hi := pg.off[i&pageMask], pg.off[i&pageMask+1]
	return pg.ids[lo:hi:hi]
}

// RangeError is what Row panics with for an index outside the column.
// Panicking with a value, formatted only if it is ever printed, keeps the
// check, and with it the accessors built on Row, within the inlining budget.
type RangeError struct{ I, N int }

func (e RangeError) Error() string { return fmt.Sprintf("cow: row %d out of range [0,%d)", e.I, e.N) }

// Clone returns a column sharing everything with r; see Paged.Clone.
func (r *Rows[T]) Clone() Rows[T] { return *r }

// Append adds an empty row at index Len().
func (r *Rows[T]) Append(own *Owner) {
	if r.n&pageMask == 0 {
		r.open(own, r.n>>pageShift, &rowPage[T]{own: own})
	}
	r.n++
}

// Insert inserts v into row i (0 <= i < Len()) for the holder of own, at
// position at of the row (0 <= at <= its length).
func (r *Rows[T]) Insert(own *Owner, i, at int, v T) {
	pg := r.edit(own, i, at, 1)
	pg.ids[int(pg.off[i&pageMask])+at] = v
}

// Delete removes the element at position at of row i for the holder of own.
func (r *Rows[T]) Delete(own *Owner, i, at int) { r.edit(own, i, at, -1) }

// edit opens (d = 1) or closes (d = -1) one element's gap at position at of
// row i, and returns the page, now owned by own, with the offsets of the rows
// after i moved by d. A page own owns is shifted in place; any other is
// copied with the gap already made, which is the only copy the write makes
// of it.
func (r *Rows[T]) edit(own *Owner, i, at, d int) *rowPage[T] {
	s := r.slot(own, i>>pageShift)
	pg, k := *s, int((*s).off[i&pageMask])+at
	switch {
	case pg.own == own && d > 0:
		var zero T
		pg.ids = slices.Insert(pg.ids, k, zero)
	case pg.own == own:
		pg.ids = slices.Delete(pg.ids, k, k+1)
	default:
		ids := make([]T, len(pg.ids)+d)
		copy(ids, pg.ids[:k])
		copy(ids[k+max(d, 0):], pg.ids[k+max(-d, 0):])
		pg = &rowPage[T]{own: own, off: pg.off, ids: ids}
		*s = pg
	}
	for j := i&pageMask + 1; j <= PageSize; j++ {
		pg.off[j] += int32(d)
	}
	return pg
}
