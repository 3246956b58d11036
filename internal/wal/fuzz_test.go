package wal

import (
	"bytes"
	"slices"
	"testing"

	"dkindex/internal/faultfs"
	"dkindex/internal/fsx"
)

// FuzzWALReplay feeds arbitrary bytes to the replay parser: it must never
// panic, every record it applies must round-trip its framing invariants
// (contiguous sequence numbers from 1), and it must never report more valid
// bytes than the file holds. The frame walker and the per-record Replay must
// agree on the records, in order, and on the result; and the frames it found,
// appended again by a Writer, must be byte for byte what AppendFrame encodes
// for them.
func FuzzWALReplay(f *testing.F) {
	// A valid two-record log as the primary seed.
	fs := faultfs.New()
	fs.MkdirAll("d")
	w, err := Create(fs, "d/w")
	if err != nil {
		f.Fatal(err)
	}
	appendOne(w, 1, []byte("hello"))
	appendOne(w, 2, []byte{0, 1, 2, 3, 255})
	w.Close()
	if valid, err := fsx.ReadAll(fs, "d/w"); err == nil {
		f.Add(valid)
		// Truncations at every prefix hit torn-tail handling.
		for i := 0; i < len(valid); i += 3 {
			f.Add(valid[:i])
		}
	}
	f.Add([]byte("DKWL"))
	f.Add([]byte("DKWL\x01"))
	f.Add([]byte("DKWL\x01\x01\x00\x00"))

	// Group-frame torn tails: a log whose last frame is an atomic group,
	// truncated at every offset — including mid-member, inside the varint
	// member count, and inside the trailing CRC. Replay must surface either
	// the whole group or none of it, never a member prefix.
	for _, g := range groupFrameLogs(f) {
		f.Add(g.data)
		for i := 0; i < len(g.data); i++ {
			f.Add(g.data[:i])
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		m := faultfs.New()
		m.MkdirAll("d")
		fh, err := m.Create("d/f")
		if err != nil {
			t.Fatal(err)
		}
		fh.Write(data)
		fh.Close()
		var prev uint64
		var recs []Record
		res, err := Replay(m, "d/f", func(r Record) error {
			if r.Seq != prev+1 {
				t.Fatalf("sequence gap: %d after %d", r.Seq, prev)
			}
			prev = r.Seq
			recs = append(recs, r)
			return nil
		})
		var frames [][]Record
		walked, werr := Walk(data, 0, func(fr []Record) error {
			frames = append(frames, fr)
			return nil
		})
		if (err == nil) != (werr == nil) {
			t.Fatalf("Replay error %v, Walk error %v", err, werr)
		}
		if err != nil {
			return
		}
		if res.ValidSize > int64(len(data)) {
			t.Fatalf("ValidSize %d > file size %d", res.ValidSize, len(data))
		}
		if res.LastSeq != prev {
			t.Fatalf("LastSeq %d, applied through %d", res.LastSeq, prev)
		}
		if *walked != *res {
			t.Fatalf("Walk found %+v, Replay %+v", *walked, *res)
		}
		var flat []Record
		for _, fr := range frames {
			flat = append(flat, fr...)
		}
		if !slices.EqualFunc(flat, recs, func(a, b Record) bool {
			return a.Seq == b.Seq && a.Op == b.Op && bytes.Equal(a.Payload, b.Payload)
		}) {
			t.Fatalf("Walk's frames hold %v, Replay applied %v", flat, recs)
		}

		w, err := Create(m, "d/again")
		if err != nil {
			t.Fatal(err)
		}
		encoded := Header()
		for _, fr := range frames {
			if _, err := w.AppendGroup(fr); err != nil {
				t.Fatal(err)
			}
			if encoded, err = AppendFrame(encoded, fr); err != nil {
				t.Fatal(err)
			}
		}
		w.Close()
		if again, _ := fsx.ReadAll(m, "d/again"); !bytes.Equal(again, encoded) {
			t.Fatalf("AppendGroup wrote %x, AppendFrame encodes %x", again, encoded)
		}
	})
}

// groupLog is one torn-tail fixture: a log whose final frame is an atomic
// group of group members, preceded by prefix plain records.
type groupLog struct {
	data          []byte
	prefix, group uint64
}

// groupFrameLogs builds logs ending in a group frame whose truncations the
// fuzz corpus and the torn-tail regression test sweep: a plain record
// followed by a three-member group, and a bare two-member group with
// payloads long enough that member boundaries sit far from frame boundaries.
func groupFrameLogs(tb testing.TB) []groupLog {
	tb.Helper()
	build := func(f func(w *Writer)) []byte {
		fs := faultfs.New()
		fs.MkdirAll("d")
		w, err := Create(fs, "d/w")
		if err != nil {
			tb.Fatal(err)
		}
		f(w)
		w.Close()
		data, err := fsx.ReadAll(fs, "d/w")
		if err != nil {
			tb.Fatal(err)
		}
		return data
	}
	return []groupLog{
		{prefix: 1, group: 3, data: build(func(w *Writer) {
			appendOne(w, 1, []byte("solo"))
			w.AppendGroup([]GroupRecord{
				{Op: 2, Payload: []byte("first member")},
				{Op: 3, Payload: []byte{0xff, 0x00, 0xaa}},
				{Op: 4, Payload: []byte("the third and final member")},
			})
		})},
		{prefix: 0, group: 2, data: build(func(w *Writer) {
			w.AppendGroup([]GroupRecord{
				{Op: 5, Payload: bytesOf(200, 0x5a)},
				{Op: 6, Payload: bytesOf(100, 0xc3)},
			})
		})},
	}
}

func bytesOf(n int, b byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = b
	}
	return out
}

// TestGroupFrameTornTailAtomicity is the deterministic regression behind the
// fuzz seeds: for every truncation point of logs ending in a group frame,
// replay must report the truncation and apply either every member of the
// group or none — a torn tail can never surface a member prefix.
func TestGroupFrameTornTailAtomicity(t *testing.T) {
	for li, g := range groupFrameLogs(t) {
		fs := faultfs.New()
		fs.MkdirAll("d")
		writeFile := func(data []byte) {
			fh, err := fs.Create("d/f")
			if err != nil {
				t.Fatal(err)
			}
			fh.Write(data)
			fh.Close()
		}
		total := g.prefix + g.group
		writeFile(g.data)
		var applied uint64
		res, err := Replay(fs, "d/f", func(r Record) error { applied = r.Seq; return nil })
		if err != nil || res.Truncated || applied != total {
			t.Fatalf("log %d: intact replay: applied %d/%d, %v %+v", li, applied, total, err, res)
		}
		for cut := 0; cut < len(g.data); cut++ {
			writeFile(g.data[:cut])
			var prev uint64
			res, err := Replay(fs, "d/f", func(r Record) error {
				if r.Seq != prev+1 {
					t.Fatalf("log %d cut %d: sequence gap %d after %d", li, cut, r.Seq, prev)
				}
				prev = r.Seq
				return nil
			})
			if err != nil {
				continue // unreadable header: no records surfaced, fine
			}
			// Cuts on a frame boundary leave a shorter-but-clean log; any
			// other cut leaves a torn tail that must be reported.
			if wantTorn := res.ValidSize != int64(cut); res.Truncated != wantTorn {
				t.Fatalf("log %d cut %d: Truncated = %v, want %v (valid %d)",
					li, cut, res.Truncated, wantTorn, res.ValidSize)
			}
			if prev == total {
				t.Fatalf("log %d cut %d: full log replayed from a truncation", li, cut)
			}
			if prev > g.prefix {
				t.Fatalf("log %d cut %d: partial group surfaced (%d of %d members)",
					li, cut, prev-g.prefix, g.group)
			}
		}
	}
}
