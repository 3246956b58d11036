package nodeset

import (
	"math/bits"
	"sync"

	"dkindex/internal/graph"
)

// Set-algebra kernels. All operate container-at-a-time: matching 2^16-id
// chunks are combined in their physical encodings (word ops for bitmaps,
// delta walks for varint blocks) without decompressing either operand into
// node slices. Chunks present in only one operand are shared structurally —
// containers are immutable — so disjoint unions cost O(#containers), not
// O(#members).

// wordsPool recycles the 8 KiB bitmap scratch the merge kernels use.
var wordsPool = sync.Pool{New: func() any {
	b := make([]uint64, containerWords)
	return &b
}}

// orInto ORs the container's members into words.
func (c *container) orInto(words []uint64) {
	if c.bits != nil {
		for w, word := range c.bits {
			words[w] |= word
		}
		return
	}
	cur, off := uint32(0), 0
	for range c.card {
		d, n := decodeUvarint(c.blk[off:])
		off, cur = off+n, cur+d // the first value is stored whole, as a gap from 0
		words[cur>>6] |= 1 << (cur & 63)
	}
}

// containerFromBits builds the canonical container for the chunk bitmap:
// dense above the threshold, otherwise re-encoded as a varint-delta block,
// as makeContainer encodes one: once into stack scratch, then copied out at
// its exact length. The bitmap is copied, never retained; card must be its
// population count.
func containerFromBits(words []uint64, card int) container {
	if card > denseThreshold {
		return container{card: card, bits: append([]uint64(nil), words...)}
	}
	var scratch [maxBlock]byte
	blk, prev := scratch[:0], uint32(0)
	for w, word := range words {
		for word != 0 {
			v := uint32(w<<6 + bits.TrailingZeros64(word))
			word &= word - 1
			blk = appendUvarint(blk, v-prev) // the first value is stored whole, as a gap from 0
			prev = v
		}
	}
	return container{card: card, blk: exactCopy(blk)}
}

// shareContainer returns a copy of the container struct sharing its payload
// (payloads are immutable).
func shareContainer(c *container) container { return *c }

// Union returns the members present in either set.
func Union(a, b Set) Set {
	var out Set
	i, j := 0, 0
	push := func(k uint16, c container) {
		out.keys = append(out.keys, k)
		out.cons = append(out.cons, c)
		out.n += c.card
	}
	for i < len(a.keys) || j < len(b.keys) {
		switch {
		case j == len(b.keys) || (i < len(a.keys) && a.keys[i] < b.keys[j]):
			push(a.keys[i], shareContainer(&a.cons[i]))
			i++
		case i == len(a.keys) || b.keys[j] < a.keys[i]:
			push(b.keys[j], shareContainer(&b.cons[j]))
			j++
		default:
			wp := wordsPool.Get().(*[]uint64)
			words := *wp
			a.cons[i].orInto(words)
			b.cons[j].orInto(words)
			card := 0
			for _, w := range words {
				card += bits.OnesCount64(w)
			}
			push(a.keys[i], containerFromBits(words, card))
			clearWords(words)
			wordsPool.Put(wp)
			i++
			j++
		}
	}
	return out
}

func clearWords(words []uint64) { clear(words) }

// MergeAppend appends the first n members of the sorted union of the given
// sets plus the sorted slice extra to dst; an n beyond the union's size
// (math.MaxInt, say) appends all of it. It is the query result-assembly
// primitive: matched extents are disjoint by the partition invariant, so the
// union is a container-level merge that replaces append-everything-then-sort,
// and a request that lists a prefix stops decoding once it has it. Chunks
// owned by a single stream are emitted directly; the rare chunk shared by
// several streams is merged through a pooled bitmap.
func MergeAppend(dst []graph.NodeID, sets []Set, extra []graph.NodeID, n int) []graph.NodeID {
	total := len(extra)
	live := 0
	for _, s := range sets {
		total += s.n
		if s.n > 0 {
			live++
		}
	}
	if n = min(n, total); n <= 0 {
		return dst
	}
	// Fast paths: one stream needs no merging at all.
	if live == 0 {
		return append(dst, extra[:n]...)
	}
	if live == 1 && len(extra) == 0 {
		for _, s := range sets {
			if s.n > 0 {
				return s.appendFirst(dst, n)
			}
		}
	}
	if cap(dst)-len(dst) < n {
		grown := make([]graph.NodeID, len(dst), len(dst)+n)
		copy(grown, dst)
		dst = grown
	}
	end := len(dst) + n
	pos := make([]int, len(sets))
	ei := 0
	for len(dst) < end {
		// Find the smallest chunk key across all streams.
		const noKey = 1 << 17
		minKey := noKey
		for i, s := range sets {
			if pos[i] < len(s.keys) && int(s.keys[pos[i]]) < minKey {
				minKey = int(s.keys[pos[i]])
			}
		}
		if ei < len(extra) && int(key16(extra[ei])) < minKey {
			minKey = int(key16(extra[ei]))
		}
		k := uint16(minKey)
		// Count the streams contributing to this chunk.
		owners := 0
		ownerSet, ownerCon := -1, -1
		for i, s := range sets {
			if pos[i] < len(s.keys) && s.keys[pos[i]] == k {
				owners++
				ownerSet, ownerCon = i, pos[i]
			}
		}
		ee := ei
		for ee < len(extra) && key16(extra[ee]) == k {
			ee++
		}
		if ee > ei {
			owners++
		}
		base := graph.NodeID(uint32(k) << 16)
		switch {
		case owners == 1 && ee > ei:
			dst = append(dst, extra[ei:min(ee, ei+end-len(dst))]...)
		case owners == 1:
			dst = sets[ownerSet].cons[ownerCon].appendTo(dst, base, end-len(dst))
		default:
			wp := wordsPool.Get().(*[]uint64)
			words := *wp
			for i, s := range sets {
				if pos[i] < len(s.keys) && s.keys[pos[i]] == k {
					s.cons[pos[i]].orInto(words)
				}
			}
			for _, id := range extra[ei:ee] {
				l := low16(id)
				words[l>>6] |= 1 << (l & 63)
			}
			dst = appendBits(dst, words, base, end-len(dst))
			clearWords(words)
			wordsPool.Put(wp)
		}
		for i, s := range sets {
			if pos[i] < len(s.keys) && s.keys[pos[i]] == k {
				pos[i]++
			}
		}
		ei = ee
	}
	return dst
}
