package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
)

// This file is the frame codec: one encoder, which the Writer and the
// replication feed share, and one walker, which recovery, a replica and the
// feed share. The wire format of a replication chunk is exactly the WAL file
// format — header, then frames — so a body truncated in flight is caught by
// the frame CRC just like a torn tail on disk.

// HeaderSize is the byte length of the file/stream header.
const HeaderSize = headerSize

var errEmptyFrame = errors.New("wal: empty frame")

// Header returns a fresh copy of the header that starts every WAL file and
// every replication chunk.
func Header() []byte {
	h := make([]byte, 0, headerSize)
	h = append(h, magic[:]...)
	return append(h, Version)
}

// checkHeader validates the magic and version at the front of data.
func checkHeader(data []byte) error {
	if len(data) < headerSize || [4]byte(data[:4]) != magic {
		return ErrBadHeader
	}
	if data[4] != Version {
		return fmt.Errorf("%w: unsupported version %d", ErrBadHeader, data[4])
	}
	return nil
}

// AppendFrame appends the frame carrying recs to dst and returns the extended
// slice: byte for byte what AppendGroup writes for the same records, with the
// frame sequence taken from recs[0].Seq (members are assumed contiguous).
func AppendFrame(dst []byte, recs []Record) ([]byte, error) {
	if len(recs) == 0 {
		return dst, errEmptyFrame
	}
	return appendFrame(dst, recs[0].Seq, recs)
}

// appendFrame appends the frame carrying recs (at least one), numbered from
// seq, to dst: one record as a plain frame, several as a group frame. The
// members' own Seq fields are not read. A reserved op leaves dst as it was.
func appendFrame(dst []byte, seq uint64, recs []Record) ([]byte, error) {
	start := len(dst)
	dst = binary.AppendUvarint(dst, seq)
	if len(recs) > 1 {
		body := uvarintLen(uint64(len(recs)))
		for _, r := range recs {
			body += 1 + uvarintLen(uint64(len(r.Payload))) + len(r.Payload)
		}
		dst = append(dst, byte(opGroup))
		dst = binary.AppendUvarint(dst, uint64(body))
		dst = binary.AppendUvarint(dst, uint64(len(recs)))
	}
	// A plain frame's op, length and payload are encoded as a group member's.
	for _, r := range recs {
		if r.Op == opGroup {
			return dst[:start], ErrReservedOp
		}
		dst = append(dst, byte(r.Op))
		dst = binary.AppendUvarint(dst, uint64(len(r.Payload)))
		dst = append(dst, r.Payload...)
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:])), nil
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// Walk checks data's header, then calls apply once per intact frame, in
// order, with the frame's records — the one record of a plain frame, or every
// member of a group — the first frame numbered prevSeq+1. apply may modify
// recs; their payloads alias data. A torn, corrupt or out-of-sequence frame
// ends the walk and sets Truncated, which is not an error. An apply error
// ends it and is returned as-is, with a result covering the frames before.
// A bad header returns ErrBadHeader and a nil result.
func Walk(data []byte, prevSeq uint64, apply func([]Record) error) (*ReplayResult, error) {
	if err := checkHeader(data); err != nil {
		return nil, err
	}
	res := &ReplayResult{LastSeq: prevSeq, ValidSize: headerSize}
	for off := headerSize; off < len(data); {
		recs, end, ok := parseFrame(data, off, res.LastSeq)
		if !ok {
			res.Truncated = true
			break
		}
		last := recs[len(recs)-1].Seq
		if err := apply(recs); err != nil {
			return res, err
		}
		res.Records += len(recs)
		res.LastSeq = last
		res.ValidSize = int64(end)
		off = end
	}
	return res, nil
}

// parseFrame decodes one physical frame at off, expanding a group frame into
// its members (contiguous sequence numbers from prevSeq+1). ok is false for a
// torn, corrupt or out-of-sequence frame. A group body that does not decode
// exactly behind a valid checksum can only be corruption that collided with
// the CRC, and is treated the same way.
func parseFrame(data []byte, off int, prevSeq uint64) (recs []Record, end int, ok bool) {
	rec, end, ok := parseRecord(data, off, prevSeq)
	if !ok {
		return nil, 0, false
	}
	if rec.Op == opGroup {
		members, ok := parseGroupBody(rec.Seq, rec.Payload)
		if !ok {
			return nil, 0, false
		}
		return members, end, true
	}
	return []Record{rec}, end, true
}

// Offset returns the durable end of the writer's file: every byte below it
// belongs to the header or an acknowledged record and will never change, so
// a concurrent reader may serve the prefix without synchronizing with
// appends.
func (w *Writer) Offset() int64 { return w.off }
