package nodeset

// The varint-delta block codec. A block encodes a strictly ascending
// sequence of low-16 values as the uvarint of the first value followed by
// uvarints of the gaps (always >= 1). Blocks live only in memory and only this
// package builds them, so they are always valid.

// appendUvarint appends the LEB128 encoding of v (v < 2^21 in practice:
// low-16 values and their gaps need at most three bytes).
func appendUvarint(dst []byte, v uint32) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
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
