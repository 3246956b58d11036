// Package wal is a checksummed, append-only write-ahead log for index
// mutations. One log file covers one checkpoint epoch: every record appended
// after checkpoint N lands in wal-N, and recovery replays the chain of logs
// on top of the newest loadable checkpoint.
//
// File layout:
//
//	header: magic "DKWL", version byte
//	record: uvarint seq (1-based, contiguous), op byte,
//	        uvarint payload length, payload,
//	        crc32/IEEE over (seq|op|len|payload), 4 bytes little-endian
//	group:  a record whose op byte is the reserved 0xFF and whose payload is
//	        uvarint member count (≥2), then per member: op byte, uvarint
//	        payload length, payload. Members take sequence numbers
//	        seq..seq+count-1; the single frame CRC makes the batch atomic.
//
// A frame — one plain record, or one group — is the unit of everything: a
// commit appends one, recovery and a replica apply one at a time, and the
// replication feed ships them whole. AppendGroup writes one frame and is
// write-ahead durable: the frame is written and fsynced before it returns. A
// failed append rolls the file back to the previous frame boundary so a later
// append cannot strand readable frames behind garbage; if even the rollback
// fails the writer latches ErrWriterBroken and refuses further appends — the
// store recovers by rotating to a fresh log at the next checkpoint.
//
// Replay tolerates a torn tail: it hands over every intact frame and reports
// the number of valid bytes so the caller can truncate the garbage and keep
// appending. A checksum mismatch, a short frame or a sequence gap all end
// the replay the same way — frames beyond that point were never
// acknowledged durable in an order that could matter.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"dkindex/internal/fsx"
)

// Op tags one record type. The WAL does not interpret payloads; the facade
// defines the vocabulary.
type Op byte

// opGroup frames an atomic group of records inside one physical frame. The
// value is reserved: the encoder rejects it so the facade vocabulary can
// never collide with the framing layer.
const opGroup Op = 0xFF

// ErrReservedOp reports an attempt to append a record with the reserved
// group-framing op byte.
var ErrReservedOp = errors.New("wal: op 0xFF is reserved for group frames")

// Magic identifies a WAL file; Version its format revision.
var magic = [4]byte{'D', 'K', 'W', 'L'}

// Version is the current WAL format version.
const Version = 1

const headerSize = 5

// ErrWriterBroken reports a writer that failed to roll back a bad append;
// nothing more can be safely appended to its file.
var ErrWriterBroken = errors.New("wal: writer broken (failed rollback after bad append)")

// ErrBadHeader reports a file or stream that is not a WAL of this version:
// too short for a header, a foreign magic, or an unsupported version byte.
var ErrBadHeader = errors.New("wal: bad file header")

// Record is one replayed entry.
type Record struct {
	Seq     uint64
	Op      Op
	Payload []byte
}

// GroupRecord is one member of an AppendGroup: a Record whose Seq the writer
// assigns (the field is not read).
type GroupRecord = Record

// Writer appends records to one WAL file.
type Writer struct {
	f      fsx.File
	seq    uint64 // last acknowledged sequence number
	off    int64  // durable end of file
	broken bool
	buf    []byte
}

// Create creates (or truncates) a WAL file and durably writes its header.
// The caller is responsible for dir-syncing the parent directory if the file
// is new.
func Create(fs fsx.FS, path string) (*Writer, error) {
	f, err := fs.Create(path)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(Header()); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return &Writer{f: f, off: headerSize}, nil
}

// OpenAt reopens an existing WAL for appending after a replay: the file is
// truncated to validSize (chopping any torn tail durably) and appends resume
// with sequence numbers after lastSeq.
func OpenAt(fs fsx.FS, path string, validSize int64, lastSeq uint64) (*Writer, error) {
	f, err := fs.OpenRW(path)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(validSize); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(validSize, 0); err != nil {
		f.Close()
		return nil, err
	}
	return &Writer{f: f, seq: lastSeq, off: validSize}, nil
}

// Seq returns the last acknowledged sequence number.
func (w *Writer) Seq() uint64 { return w.seq }

// AppendGroup durably appends recs as one frame with one fsync and returns
// the frame's length. One record is written as a plain frame, several as a
// group frame, atomic under its checksum: replay hands over either every
// member (in order, with contiguous sequence numbers) or none — a torn write
// can never surface a prefix of the batch. On failure no member is
// acknowledged and the file is rolled back to the previous frame boundary.
func (w *Writer) AppendGroup(recs []GroupRecord) (int, error) {
	if len(recs) == 0 {
		return 0, errEmptyFrame
	}
	if w.broken {
		return 0, ErrWriterBroken
	}
	frame, err := appendFrame(w.buf[:0], w.seq+1, recs)
	if err != nil {
		return 0, err
	}
	w.buf = frame
	if _, err := w.f.Write(frame); err != nil {
		w.rollback()
		return 0, err
	}
	if err := w.f.Sync(); err != nil {
		w.rollback()
		return 0, err
	}
	w.off += int64(len(frame))
	w.seq += uint64(len(recs))
	return len(frame), nil
}

// rollback chops a partially written frame so the file ends at the last
// acknowledged record. If the chop cannot be made durable the writer is
// latched broken.
func (w *Writer) rollback() {
	if w.f.Truncate(w.off) != nil || w.f.Sync() != nil {
		w.broken = true
		return
	}
	if _, err := w.f.Seek(w.off, 0); err != nil {
		w.broken = true
	}
}

// Broken reports whether the writer has latched ErrWriterBroken.
func (w *Writer) Broken() bool { return w.broken }

// Close closes the underlying file.
func (w *Writer) Close() error { return w.f.Close() }

// ReplayResult describes what a replay or a Walk found.
type ReplayResult struct {
	// Records is how many records the intact frames that were applied hold.
	Records int
	// LastSeq is the sequence number of the last applied record.
	LastSeq uint64
	// ValidSize is the byte offset of the end of the last intact frame;
	// everything after it is a torn or corrupt tail.
	ValidSize int64
	// Truncated reports whether a torn/corrupt tail was found.
	Truncated bool
}

// ReplayFrames reads the WAL at path and calls apply once per intact frame,
// in order, with the frame's records (see Walk). A torn or corrupt tail ends
// the replay and is reported, not an error; an apply error aborts the replay
// and is returned as-is, with a result covering the frames before it. A file
// that cannot be read returns the filesystem's error and a nil result; a
// header that is short, foreign or of another version returns ErrBadHeader,
// wrapped with the path, and a nil result.
func ReplayFrames(fs fsx.FS, path string, apply func([]Record) error) (*ReplayResult, error) {
	data, err := fsx.ReadAll(fs, path)
	if err != nil {
		return nil, err
	}
	res, err := Walk(data, 0, apply)
	if res == nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return res, err
}

// Replay is ReplayFrames one record at a time: apply sees every record of
// every intact frame, in order. An apply error aborts the replay; the result
// then covers only the frames before the one that failed.
func Replay(fs fsx.FS, path string, apply func(Record) error) (*ReplayResult, error) {
	return ReplayFrames(fs, path, func(recs []Record) error {
		for _, r := range recs {
			if err := apply(r); err != nil {
				return err
			}
		}
		return nil
	})
}

// parseGroupBody decodes the members of a group frame whose first member
// carries sequence number firstSeq. ok is false when the body does not
// decode exactly: wrong count, reserved op, short payload or trailing bytes.
func parseGroupBody(firstSeq uint64, body []byte) ([]Record, bool) {
	count, n := binary.Uvarint(body)
	if n <= 0 || count < 2 || count > uint64(len(body)) {
		return nil, false
	}
	recs := make([]Record, 0, count)
	p := n
	for i := uint64(0); i < count; i++ {
		if p >= len(body) {
			return nil, false
		}
		op := Op(body[p])
		p++
		if op == opGroup {
			return nil, false
		}
		plen, n := binary.Uvarint(body[p:])
		if n <= 0 || plen > uint64(len(body)) {
			return nil, false
		}
		p += n
		if p+int(plen) > len(body) {
			return nil, false
		}
		recs = append(recs, Record{Seq: firstSeq + i, Op: op, Payload: body[p : p+int(plen)]})
		p += int(plen)
	}
	if p != len(body) {
		return nil, false
	}
	return recs, true
}

// parseRecord decodes one frame at off. ok is false for any torn, corrupt
// or out-of-sequence frame.
func parseRecord(data []byte, off int, prevSeq uint64) (rec Record, end int, ok bool) {
	seq, n := binary.Uvarint(data[off:])
	if n <= 0 || seq != prevSeq+1 {
		return rec, 0, false
	}
	p := off + n
	if p >= len(data) {
		return rec, 0, false
	}
	op := data[p]
	p++
	plen, n := binary.Uvarint(data[p:])
	if n <= 0 || plen > uint64(len(data)) {
		return rec, 0, false
	}
	p += n
	if p+int(plen)+4 > len(data) {
		return rec, 0, false
	}
	payload := data[p : p+int(plen)]
	p += int(plen)
	sum := binary.LittleEndian.Uint32(data[p : p+4])
	if crc32.ChecksumIEEE(data[off:p]) != sum {
		return rec, 0, false
	}
	return Record{Seq: seq, Op: Op(op), Payload: payload}, p + 4, true
}
