// Package cow is the one copy-on-write mechanism behind snapshot cloning:
// paged columns whose clones share every page until one side writes it.
//
// Ownership rule. A container (graph.Graph, index.IndexGraph) holds an
// *Owner token; every page records the token of the container that
// allocated it. A write goes in place only when the page's token is the
// writer's current token; otherwise the page is copied first and the copy
// takes the writer's token. Cloning a container hands the clone a fresh
// token and replaces the receiver's token as well (an atomic store: lock-free
// readers and concurrent clones of a published snapshot only ever race on
// that one word), so from then on neither side owns any page they share and
// a write through one is never visible through the other.
//
// Readers never look at tokens: a page reachable from a published snapshot
// is written in place by nobody, because the only token that could do so is
// held by that snapshot, which the facade never mutates.
package cow

import "slices"

const (
	pageShift = 7
	// PageSize is the number of elements per page. 128 keeps the page table
	// of an 86k-node column at 673 pointers and a write's page copy at 3 kB
	// for adjacency rows; it is a constant, not a tuning knob.
	PageSize = 1 << pageShift
	pageMask = PageSize - 1
)

// Owner is a write token. The zero-size-avoiding field makes every new(Owner)
// a distinct address. The nil token is a valid owner (a container that was
// never cloned); Clone always installs fresh non-nil tokens on both sides.
type Owner struct{ _ byte }

type page[T any] struct {
	own *Owner
	v   [PageSize]T
}

// Paged is an append-only column of T stored in fixed-size pages. The zero
// value is an empty column.
type Paged[T any] struct {
	// OnCopy, if set, sees every page copy a write makes before the copy is
	// installed. A column whose elements reference further mutable storage
	// (adjacency rows) uses it to mark that storage shared; set it before the
	// first write and leave it alone — Clone carries it over.
	OnCopy func(*[PageSize]T)

	pages []*page[T]
	n     int
}

// Make returns a column of n zero elements whose pages belong to the nil
// token, for a container under construction to fill in place.
func Make[T any](n int) Paged[T] {
	p := Paged[T]{pages: make([]*page[T], (n+pageMask)>>pageShift), n: n}
	for i := range p.pages {
		p.pages[i] = new(page[T])
	}
	return p
}

// Len returns the number of elements.
func (p *Paged[T]) Len() int { return p.n }

// At returns element i.
func (p *Paged[T]) At(i int) T { return p.pages[i>>pageShift].v[i&pageMask] }

// Clone returns a column sharing every page with p: len/PageSize pointer
// copies. The caller must retire both sides' tokens (see the package comment).
func (p *Paged[T]) Clone() Paged[T] {
	return Paged[T]{OnCopy: p.OnCopy, pages: slices.Clone(p.pages), n: p.n}
}

// Mut returns a pointer through which the holder of own may write element i,
// copying the page first unless own already owns it. The pointer is valid
// until the column is next cloned.
func (p *Paged[T]) Mut(own *Owner, i int) *T {
	pg := p.pages[i>>pageShift]
	if pg.own != own {
		pg = &page[T]{own: own, v: pg.v}
		if p.OnCopy != nil {
			p.OnCopy(&pg.v)
		}
		p.pages[i>>pageShift] = pg
	}
	return &pg.v[i&pageMask]
}

// Append adds v at index Len().
func (p *Paged[T]) Append(own *Owner, v T) {
	if p.n&pageMask == 0 {
		p.pages = append(p.pages, &page[T]{own: own})
	}
	p.n++
	*p.Mut(own, p.n-1) = v
}
