package nodeset

// The varint-delta block codec. A block encodes a strictly ascending
// sequence of low-16 values as the uvarint of the first value followed by
// uvarints of the gaps (always >= 1). Blocks live only in memory and only this
// package builds them, so they are always valid.

// appendUvarint appends the LEB128 encoding of v (v < 2^21 in practice:
// low-16 values and their gaps need at most three bytes).
func appendUvarint(dst []byte, v uint32) []byte {
	if v < 0x80 { // most gaps: one byte, no loop
		return append(dst, byte(v))
	}
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// exactCopy copies a block encoded in scratch into a slice of its own whose
// capacity is its length: both encoders end here, so no block holds slack.
func exactCopy(blk []byte) []byte {
	out := make([]byte, len(blk))
	copy(out, blk)
	return out
}

// decodeUvarint decodes the uvarint at the front of b, returning the value
// and its length in bytes.
func decodeUvarint(b []byte) (uint32, int) {
	var v uint32
	for i, c := range b {
		v |= uint32(c&0x7f) << (7 * i)
		if c < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
