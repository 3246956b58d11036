// Package nodeset implements succinct immutable sets of sorted node ids —
// the storage form of index extents. A set is split into 2^16-id chunks
// (roaring-style); each chunk picks the cheaper of two physical encodings at
// build time:
//
//   - sparse: a varint-delta block. The chunk's members are stored as the
//     uvarint of the first low-16 value followed by uvarints of the strictly
//     positive gaps. Tree-shaped documents place bisimilar nodes at regular
//     small strides, so most gaps fit one byte.
//   - dense: a 1024-word (8 KiB) bitmap, chosen when the chunk holds more
//     than denseThreshold members (beyond that point the bitmap is smaller
//     than any delta block and set algebra degenerates to word ops).
//
// Sets are immutable after construction, so clones and snapshots share them
// freely. Two kernels combine them, container-at-a-time and without
// decompressing into intermediate node slices: Union grows an extent by a
// grafted document's nodes, and MergeAppend assembles a query's answer from
// the disjoint extents it matched.
package nodeset

import (
	"fmt"
	"math/bits"

	"dkindex/internal/graph"
)

// denseThreshold is the container cardinality above which a chunk switches
// from the varint-delta block to the bitmap: 4096 members cost 8 KiB as a
// bitmap, i.e. 2 bytes per member, the worst case of a delta block.
const denseThreshold = 4096

// containerWords is the bitmap size in uint64 words (2^16 bits).
const containerWords = 1 << 10

// container is one 2^16-id chunk. Exactly one of bits and blk is non-nil.
type container struct {
	card int      // members in this chunk, 1..65536
	bits []uint64 // dense bitmap, containerWords long
	blk  []byte   // sparse varint-delta block
}

// Set is an immutable sorted set of non-negative node ids.
// The zero value is the empty set.
type Set struct {
	keys []uint16 // chunk numbers (id >> 16), ascending
	cons []container
	n    int
}

func key16(id graph.NodeID) uint16 { return uint16(uint32(id) >> 16) }
func low16(id graph.NodeID) uint16 { return uint16(uint32(id)) }

// FromSorted builds a set from strictly ascending non-negative ids. The
// input slice is not retained; callers may reuse it. It panics on unsorted
// or duplicate input — extents are sorted by invariant, so a violation is a
// programming error, not data corruption.
func FromSorted(ids []graph.NodeID) Set {
	var s Set
	if len(ids) == 0 {
		return s
	}
	if ids[0] < 0 {
		panic("nodeset: FromSorted with negative id")
	}
	for i := 0; i < len(ids); {
		k := key16(ids[i])
		j := i + 1
		for j < len(ids) && key16(ids[j]) == k {
			if ids[j] <= ids[j-1] {
				panic("nodeset: FromSorted input not strictly ascending")
			}
			j++
		}
		if j < len(ids) && ids[j] <= ids[j-1] {
			panic("nodeset: FromSorted input not strictly ascending")
		}
		s.keys = append(s.keys, k)
		s.cons = append(s.cons, makeContainer(ids[i:j]))
		i = j
	}
	s.n = len(ids)
	return s
}

// makeContainer encodes one chunk's worth of ascending ids (all sharing the
// same high 16 bits).
func makeContainer(run []graph.NodeID) container {
	if len(run) > denseThreshold {
		bits := make([]uint64, containerWords)
		for _, id := range run {
			l := low16(id)
			bits[l>>6] |= 1 << (l & 63)
		}
		return container{card: len(run), bits: bits}
	}
	blk := make([]byte, 0, len(run)+len(run)/4+2)
	prev := uint32(low16(run[0]))
	blk = appendUvarint(blk, prev)
	for _, id := range run[1:] {
		v := uint32(low16(id))
		blk = appendUvarint(blk, v-prev)
		prev = v
	}
	return container{card: len(run), blk: blk}
}

// Len returns the number of members.
func (s Set) Len() int { return s.n }

// IsEmpty reports whether the set has no members.
func (s Set) IsEmpty() bool { return s.n == 0 }

// AppendTo appends all members to dst in ascending order and returns the
// extended slice — the decompression escape hatch for callers that need a
// plain node slice.
func (s Set) AppendTo(dst []graph.NodeID) []graph.NodeID { return s.appendFirst(dst, s.n) }

// appendFirst appends the n smallest members (n <= s.n) to dst.
func (s Set) appendFirst(dst []graph.NodeID, n int) []graph.NodeID {
	if cap(dst)-len(dst) < n {
		grown := make([]graph.NodeID, len(dst), len(dst)+n)
		copy(grown, dst)
		dst = grown
	}
	end := len(dst) + n
	for i := 0; len(dst) < end; i++ {
		dst = s.cons[i].appendTo(dst, graph.NodeID(uint32(s.keys[i])<<16), end-len(dst))
	}
	return dst
}

// appendTo appends the container's n smallest members, or all of them when
// it holds fewer, to dst.
func (c *container) appendTo(dst []graph.NodeID, base graph.NodeID, n int) []graph.NodeID {
	if c.bits != nil {
		return appendBits(dst, c.bits, base, n)
	}
	cur, off := uint32(0), 0
	for range min(n, c.card) {
		d, w := decodeUvarint(c.blk[off:])
		off, cur = off+w, cur+d // the first value is stored whole, as a gap from 0
		dst = append(dst, base+graph.NodeID(cur))
	}
	return dst
}

// appendBits appends the first n members of a chunk bitmap, or all of them
// when it holds fewer, to dst.
func appendBits(dst []graph.NodeID, words []uint64, base graph.NodeID, n int) []graph.NodeID {
	end := len(dst) + n
	for w, word := range words {
		for word != 0 {
			if len(dst) == end {
				return dst
			}
			dst = append(dst, base+graph.NodeID(w<<6)+graph.NodeID(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return dst
}

// Iterate calls f on every member in ascending order until f returns false.
// It allocates nothing.
func (s Set) Iterate(f func(graph.NodeID) bool) {
	for i := range s.cons {
		if !s.cons[i].iterate(graph.NodeID(uint32(s.keys[i])<<16), f) {
			return
		}
	}
}

func (c *container) iterate(base graph.NodeID, f func(graph.NodeID) bool) bool {
	if c.bits != nil {
		for w, word := range c.bits {
			for word != 0 {
				if !f(base + graph.NodeID(w<<6) + graph.NodeID(bits.TrailingZeros64(word))) {
					return false
				}
				word &= word - 1
			}
		}
		return true
	}
	cur, off := uint32(0), 0
	for range c.card {
		d, n := decodeUvarint(c.blk[off:])
		off, cur = off+n, cur+d // the first value is stored whole, as a gap from 0
		if !f(base + graph.NodeID(cur)) {
			return false
		}
	}
	return true
}

// Stats describes a set's physical layout for memory accounting.
type Stats struct {
	// SparseContainers / DenseContainers count chunks by encoding.
	SparseContainers int
	DenseContainers  int
	// SparseBytes / DenseBytes are the payload bytes held by each encoding.
	SparseBytes int
	DenseBytes  int
}

// SparseTotal is the sparse-side resident memory: delta-block payloads plus
// per-container bookkeeping.
func (st Stats) SparseTotal() int {
	return st.SparseBytes + st.SparseContainers*containerOverhead
}

// DenseTotal is the bitmap-side resident memory including bookkeeping.
func (st Stats) DenseTotal() int {
	return st.DenseBytes + st.DenseContainers*containerOverhead
}

// Bytes is the total payload memory of the set (container payloads plus the
// per-container bookkeeping: key, cardinality and slice headers).
func (st Stats) Bytes() int { return st.SparseTotal() + st.DenseTotal() }

// containerOverhead approximates per-container bookkeeping: the key entry,
// the container struct (card + two slice headers) and keys-slice share.
const containerOverhead = 2 + 8 + 2*24

// AddStats accumulates the set's layout into st.
func (s Set) AddStats(st *Stats) {
	for i := range s.cons {
		c := &s.cons[i]
		if c.bits != nil {
			st.DenseContainers++
			st.DenseBytes += len(c.bits) * 8
		} else {
			st.SparseContainers++
			st.SparseBytes += len(c.blk)
		}
	}
}

// String renders a compact summary for debugging.
func (s Set) String() string {
	var st Stats
	s.AddStats(&st)
	return fmt.Sprintf("nodeset.Set{n=%d containers=%d(sparse)+%d(dense) bytes=%d}",
		s.n, st.SparseContainers, st.DenseContainers, st.Bytes())
}
