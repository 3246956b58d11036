package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	iofs "io/fs"
	"path/filepath"
	"testing"

	"dkindex/internal/faultfs"
	"dkindex/internal/fsx"
)

func collect(t *testing.T, fs fsx.FS, path string) ([]Record, *ReplayResult) {
	t.Helper()
	var recs []Record
	res, err := Replay(fs, path, func(r Record) error {
		recs = append(recs, Record{Seq: r.Seq, Op: r.Op, Payload: append([]byte(nil), r.Payload...)})
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return recs, res
}

// appendOne appends one record as its own frame.
func appendOne(w *Writer, op Op, payload []byte) (int, error) {
	return w.AppendGroup([]GroupRecord{{Op: op, Payload: payload}})
}

func TestAppendReplayRoundTrip(t *testing.T) {
	fs := fsx.OS{}
	path := filepath.Join(t.TempDir(), "wal-1.log")
	w, err := Create(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{[]byte("a"), {}, []byte("long payload with \x00 bytes \xff")}
	for i, p := range payloads {
		if _, err := appendOne(w, Op(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, res := collect(t, fs, path)
	if len(recs) != len(payloads) || res.Truncated {
		t.Fatalf("got %d records (truncated=%v), want %d", len(recs), res.Truncated, len(payloads))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) || r.Op != Op(i+1) || !bytes.Equal(r.Payload, payloads[i]) {
			t.Fatalf("record %d mismatch: %+v", i, r)
		}
	}
	if res.LastSeq != 3 {
		t.Fatalf("LastSeq = %d", res.LastSeq)
	}
}

func TestTornTailIsTruncatedAndAppendable(t *testing.T) {
	fs := fsx.OS{}
	path := filepath.Join(t.TempDir(), "wal-1.log")
	w, _ := Create(fs, path)
	appendOne(w, 1, []byte("first"))
	appendOne(w, 2, []byte("second"))
	w.Close()

	// Tear the tail: chop the last 3 bytes of the file.
	f, err := fs.OpenRW(path)
	if err != nil {
		t.Fatal(err)
	}
	end, _ := f.Seek(0, 2)
	if err := f.Truncate(end - 3); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recs, res := collect(t, fs, path)
	if len(recs) != 1 || !res.Truncated {
		t.Fatalf("after tear: %d records, truncated=%v", len(recs), res.Truncated)
	}

	// Resume appending after the valid prefix; the log stays fully readable.
	w2, err := OpenAt(fs, path, res.ValidSize, res.LastSeq)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := appendOne(w2, 7, []byte("third")); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	recs, res = collect(t, fs, path)
	if len(recs) != 2 || res.Truncated {
		t.Fatalf("after resume: %d records, truncated=%v", len(recs), res.Truncated)
	}
	if recs[1].Seq != 2 || string(recs[1].Payload) != "third" {
		t.Fatalf("resumed record wrong: %+v", recs[1])
	}
}

func TestCorruptMiddleStopsReplay(t *testing.T) {
	fs := faultfs.New()
	fs.MkdirAll("d")
	path := "d/wal-1.log"
	w, _ := Create(fs, path)
	appendOne(w, 1, []byte("aaaa"))
	n2, _ := appendOne(w, 2, []byte("bbbb"))
	appendOne(w, 3, []byte("cccc"))
	w.Close()

	// Flip a byte inside the second record's payload.
	sz, _ := fs.Size(path)
	mid := int(sz) - n2 - 6
	if err := fs.Corrupt(path, mid, []byte{0xEE}); err != nil {
		t.Fatal(err)
	}
	recs, res := collect(t, nil2fs(fs), path)
	if len(recs) != 1 || !res.Truncated {
		t.Fatalf("corrupt middle: %d records, truncated=%v", len(recs), res.Truncated)
	}
}

// nil2fs adapts *faultfs.MemFS to fsx.FS (it already implements it; this
// keeps the call sites explicit about the interface crossing).
func nil2fs(m *faultfs.MemFS) fsx.FS { return m }

func TestFailedAppendRollsBack(t *testing.T) {
	fs := faultfs.New()
	fs.MkdirAll("d")
	w, err := Create(fs, "d/wal-1.log")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := appendOne(w, 1, []byte("keep")); err != nil {
		t.Fatal(err)
	}
	// Fail the next write; the rollback (truncate+sync) must leave the file
	// ending at record 1, and a subsequent append must still work.
	fs.FailAt(1, faultfs.ModeError)
	if _, err := appendOne(w, 2, []byte("lost")); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("want injected error, got %v", err)
	}
	if w.Broken() {
		t.Fatal("writer should have rolled back, not broken")
	}
	if _, err := appendOne(w, 2, []byte("second-try")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	recs, res := collect(t, fs, "d/wal-1.log")
	if len(recs) != 2 || res.Truncated {
		t.Fatalf("%d records, truncated=%v", len(recs), res.Truncated)
	}
	if string(recs[1].Payload) != "second-try" {
		t.Fatalf("record 2 = %q", recs[1].Payload)
	}
}

func TestWriterBreaksWhenRollbackFails(t *testing.T) {
	fs := faultfs.New()
	fs.MkdirAll("d")
	w, _ := Create(fs, "d/wal-1.log")
	appendOne(w, 1, []byte("keep"))
	// Fail the write AND the rollback's truncate (ops 1 and 2 counted from
	// here): arm a crash so every subsequent op fails.
	fs.FailAt(1, faultfs.ModeCrash)
	if _, err := appendOne(w, 2, []byte("lost")); err == nil {
		t.Fatal("append should fail")
	}
	if !w.Broken() {
		t.Fatal("writer should be broken after failed rollback")
	}
	if _, err := appendOne(w, 3, nil); !errors.Is(err, ErrWriterBroken) {
		t.Fatalf("want ErrWriterBroken, got %v", err)
	}
}

// TestBadHeader: a file that is no WAL of this version — a foreign magic, a
// short header, another version byte — is ErrBadHeader; a missing file is
// the filesystem's not-exist error.
func TestBadHeader(t *testing.T) {
	fs := faultfs.New()
	fs.MkdirAll("d")
	for _, data := range []string{"NOPE", "DKW", "DKWL\x02\x01\x00"} {
		f, _ := fs.Create("d/x")
		f.Write([]byte(data))
		f.Close()
		if _, err := Replay(fs, "d/x", func(Record) error { return nil }); !errors.Is(err, ErrBadHeader) {
			t.Fatalf("%q: want ErrBadHeader, got %v", data, err)
		}
	}
	if _, err := Replay(fs, "d/missing", func(Record) error { return nil }); !errors.Is(err, iofs.ErrNotExist) {
		t.Fatalf("missing file: want fs.ErrNotExist, got %v", err)
	}
}

func TestAppendGroupRoundTrip(t *testing.T) {
	fs := faultfs.New()
	fs.MkdirAll("d")
	path := "d/wal-1.log"
	w, err := Create(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := appendOne(w, 1, []byte("solo")); err != nil {
		t.Fatal(err)
	}
	group := []GroupRecord{
		{Op: 2, Payload: []byte("alpha")},
		{Op: 3, Payload: nil},
		{Op: 4, Payload: []byte("gamma with \x00\xff bytes")},
	}
	if _, err := w.AppendGroup(group); err != nil {
		t.Fatal(err)
	}
	if w.Seq() != 4 {
		t.Fatalf("Seq after group = %d, want 4", w.Seq())
	}
	if _, err := appendOne(w, 5, []byte("tail")); err != nil {
		t.Fatal(err)
	}
	w.Close()

	recs, res := collect(t, fs, path)
	if len(recs) != 5 || res.Truncated {
		t.Fatalf("%d records, truncated=%v", len(recs), res.Truncated)
	}
	want := []struct {
		seq     uint64
		op      Op
		payload string
	}{
		{1, 1, "solo"},
		{2, 2, "alpha"},
		{3, 3, ""},
		{4, 4, "gamma with \x00\xff bytes"},
		{5, 5, "tail"},
	}
	for i, wr := range want {
		if recs[i].Seq != wr.seq || recs[i].Op != wr.op || string(recs[i].Payload) != wr.payload {
			t.Fatalf("record %d = %+v, want %+v", i, recs[i], wr)
		}
	}
	if res.LastSeq != 5 {
		t.Fatalf("LastSeq = %d", res.LastSeq)
	}
}

func TestAppendGroupSingleDegeneratesToPlainRecord(t *testing.T) {
	fs := faultfs.New()
	fs.MkdirAll("d")
	wg, _ := Create(fs, "d/group.log")
	if _, err := appendOne(wg, 7, []byte("x")); err != nil {
		t.Fatal(err)
	}
	wg.Close()
	// The plain frame, spelled out: seq 1, op 7, payload length 1, "x", CRC.
	frame := []byte{1, 7, 1, 'x'}
	want := binary.LittleEndian.AppendUint32(append(Header(), frame...), crc32.ChecksumIEEE(frame))
	if g, _ := fsx.ReadAll(fs, "d/group.log"); !bytes.Equal(g, want) {
		t.Fatalf("single-member group bytes differ from plain record:\n%x\n%x", g, want)
	}
}

func TestAppendGroupRejectsReservedAndEmpty(t *testing.T) {
	fs := faultfs.New()
	fs.MkdirAll("d")
	w, _ := Create(fs, "d/wal-1.log")
	if _, err := appendOne(w, opGroup, nil); !errors.Is(err, ErrReservedOp) {
		t.Fatalf("one-record AppendGroup(opGroup) = %v, want ErrReservedOp", err)
	}
	if _, err := w.AppendGroup([]GroupRecord{{Op: 1}, {Op: opGroup}}); !errors.Is(err, ErrReservedOp) {
		t.Fatalf("AppendGroup with reserved member = %v, want ErrReservedOp", err)
	}
	if _, err := w.AppendGroup(nil); err == nil {
		t.Fatal("AppendGroup(nil) should error")
	}
	if w.Seq() != 0 {
		t.Fatalf("rejected appends must not advance seq: %d", w.Seq())
	}
	// The writer is still usable after rejections.
	if _, err := appendOne(w, 1, []byte("ok")); err != nil {
		t.Fatal(err)
	}
}

// TestTornGroupReplaysNothing proves group atomicity at the byte level: any
// truncation inside the group frame drops the whole batch, never a prefix.
func TestTornGroupReplaysNothing(t *testing.T) {
	fs := faultfs.New()
	fs.MkdirAll("d")
	path := "d/wal-1.log"
	w, _ := Create(fs, path)
	appendOne(w, 1, []byte("before"))
	base, _ := fs.Size(path)
	n, err := w.AppendGroup([]GroupRecord{
		{Op: 2, Payload: []byte("aaaa")},
		{Op: 3, Payload: []byte("bbbb")},
		{Op: 4, Payload: []byte("cccc")},
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()

	full, err := fsx.ReadAll(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < n; cut++ {
		f, _ := fs.Create(path)
		f.Write(full[:int(base)+n-cut])
		f.Close()
		recs, res := collect(t, fs, path)
		if len(recs) != 1 || !res.Truncated {
			t.Fatalf("cut %d: %d records (truncated=%v), want only the pre-group record", cut, len(recs), res.Truncated)
		}
		if res.ValidSize != base {
			t.Fatalf("cut %d: ValidSize = %d, want %d", cut, res.ValidSize, base)
		}
	}
}

func TestFailedGroupAppendRollsBack(t *testing.T) {
	fs := faultfs.New()
	fs.MkdirAll("d")
	w, _ := Create(fs, "d/wal-1.log")
	appendOne(w, 1, []byte("keep"))
	fs.FailAt(1, faultfs.ModeError)
	_, err := w.AppendGroup([]GroupRecord{{Op: 2, Payload: []byte("x")}, {Op: 3, Payload: []byte("y")}})
	if !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("want injected error, got %v", err)
	}
	if w.Broken() {
		t.Fatal("writer should have rolled back, not broken")
	}
	if w.Seq() != 1 {
		t.Fatalf("seq after failed group = %d, want 1", w.Seq())
	}
	if _, err := w.AppendGroup([]GroupRecord{{Op: 2, Payload: []byte("x")}, {Op: 3, Payload: []byte("y")}}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	recs, res := collect(t, fs, "d/wal-1.log")
	if len(recs) != 3 || res.Truncated {
		t.Fatalf("%d records, truncated=%v", len(recs), res.Truncated)
	}
	if recs[2].Seq != 3 || string(recs[2].Payload) != "y" {
		t.Fatalf("record 3 = %+v", recs[2])
	}
}
