// Package cow is the one copy-on-write mechanism behind snapshot cloning:
// paged columns whose clones share everything until one side writes it.
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

import "slices"

const (
	pageShift = 5
	// PageSize is the number of elements per page, and pages are grouped
	// ChunkPages to a directory chunk. A write after a clone copies the
	// column's directory once, then one chunk of pointers and one page per
	// place it lands. Both are constants, not tuning knobs; DESIGN.md
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

type page[T any] struct {
	own *Owner
	v   [PageSize]T
}

type chunk[T any] struct {
	own   *Owner
	pages [ChunkPages]*page[T]
}

// Paged is an append-only column of T stored in fixed-size pages under a
// directory of fixed-size chunks. The zero value is an empty column. A copy
// of the value shares everything with the original and is what Clone
// returns; read through copies, write only through Clone's.
type Paged[T any] struct {
	// OnCopy, if set, sees every page copy a write makes before the copy is
	// installed. A column whose elements reference further mutable storage
	// (adjacency rows) uses it to mark that storage shared; set it before the
	// first write and leave it alone — Clone carries it over.
	OnCopy func(*[PageSize]T)

	dir    []*chunk[T]
	dirOwn *Owner // the token that may write dir's backing array in place
	n      int
}

// Make returns a column of n zero elements whose pages belong to the nil
// token, for a container under construction to fill in place. The pages and
// the chunks are allocated as one block each.
func Make[T any](n int) Paged[T] {
	pages := make([]page[T], (n+pageMask)>>pageShift)
	chunks := make([]chunk[T], (len(pages)+chunkMask)>>chunkShift)
	p := Paged[T]{dir: make([]*chunk[T], len(chunks)), n: n}
	for i := range pages {
		chunks[i>>chunkShift].pages[i&chunkMask] = &pages[i]
	}
	for i := range chunks {
		p.dir[i] = &chunks[i]
	}
	return p
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
	c := p.mutChunk(own, i>>dirShift)
	pg := c.pages[i>>pageShift&chunkMask]
	if pg.own != own {
		pg = &page[T]{own: own, v: pg.v}
		if p.OnCopy != nil {
			p.OnCopy(&pg.v)
		}
		c.pages[i>>pageShift&chunkMask] = pg
	}
	return &pg.v[i&pageMask]
}

// mutChunk returns directory chunk ci for writing by own. A chunk own owns
// sits in a directory own owns — only own installs either — so the directory
// is checked only when the chunk has to be copied.
func (p *Paged[T]) mutChunk(own *Owner, ci int) *chunk[T] {
	c := p.dir[ci]
	if c.own != own {
		p.mutDir(own)
		c = &chunk[T]{own: own, pages: c.pages}
		p.dir[ci] = c
	}
	return c
}

// mutDir makes the directory writable by own, copying it unless own already
// owns it.
func (p *Paged[T]) mutDir(own *Owner) {
	if p.dirOwn != own {
		p.dir, p.dirOwn = slices.Clone(p.dir), own
	}
}

// Append adds v at index Len().
func (p *Paged[T]) Append(own *Owner, v T) {
	i := p.n
	if i&pageMask == 0 {
		if i>>pageShift&chunkMask == 0 {
			p.mutDir(own)
			p.dir = append(p.dir, &chunk[T]{own: own})
		}
		p.mutChunk(own, i>>dirShift).pages[i>>pageShift&chunkMask] = &page[T]{own: own}
	}
	p.n++
	*p.Mut(own, i) = v
}
