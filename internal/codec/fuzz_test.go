package codec

import (
	"bufio"
	"bytes"
	"errors"
	"runtime"
	"slices"
	"testing"

	"dkindex/internal/core"
	"dkindex/internal/graph"
)

// FuzzLoadDK feeds arbitrary bytes (seeded with a valid file, a well-formed
// stream of the retired version 1 it must reject, truncations at every
// section boundary, and well-framed graph sections SaveDK never writes) to
// the index loader: it must never panic, and anything it accepts must be
// structurally valid.
func FuzzLoadDK(f *testing.F) {
	// A valid serialized index as the primary seed.
	dk0, full := movieStream(f)
	f.Add(full)
	f.Add(saveLegacy(dk0))

	// Truncations of the valid stream at every section boundary (and one
	// byte either side), the exact shapes a torn checkpoint write produces.
	off := 5
	for off < len(full) {
		plen, n := binaryUvarint(full[off+1:])
		if n <= 0 {
			break
		}
		end := off + 1 + n + int(plen) + 4
		for _, cut := range []int{off, off + 1, end - 1} {
			if cut <= len(full) {
				f.Add(append([]byte(nil), full[:cut]...))
			}
		}
		off = end
	}

	f.Add([]byte{})
	f.Add([]byte("DKIX"))
	f.Add([]byte("DKIX\x01"))
	f.Add([]byte("DKIX\x02"))
	f.Add([]byte("DKIX\x01\x00"))
	f.Add([]byte("DKIX\x02\x01\x00"))
	f.Add([]byte("NOPE\x01\x02\x03"))
	for _, c := range graphDamage(f, full) {
		f.Add(c.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		dk, err := LoadDK(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := dk.IG.Validate(); err != nil {
			t.Fatalf("accepted bytes produced invalid index: %v", err)
		}
	})
}

// movieStream is the paper's Figure 1 graph indexed and saved.
func movieStream(tb testing.TB) (*core.DK, []byte) {
	fg := graph.FigureOneMovies()
	dk := core.Build(fg, core.ReqsFromNames(fg.Labels(), map[string]int{"title": 2}))
	var buf bytes.Buffer
	if err := SaveDK(&buf, dk); err != nil {
		tb.Fatal(err)
	}
	return dk, buf.Bytes()
}

// graphDamage returns copies of full whose graph section is well framed and
// checksummed but is not what SaveDK writes. Each payload has three nodes
// labelled 0, node 0 the root, and then its edges; the counts of the last
// two claim far more than the section holds.
func graphDamage(tb testing.TB, full []byte) []struct {
	name string
	data []byte
} {
	r := frameRanges(tb, full)["graph"]
	with := func(vals ...uint64) []byte {
		var payload, frame bytes.Buffer
		enc := &encoder{w: &payload}
		for _, v := range vals {
			enc.uint(v)
		}
		bw := bufio.NewWriter(&frame)
		if err := writeFrame(bw, sectionGraph, payload.Bytes()); err != nil || bw.Flush() != nil {
			tb.Fatal(err)
		}
		return slices.Concat(full[:r[0]], frame.Bytes(), full[r[1]:])
	}
	return []struct {
		name string
		data []byte
	}{
		{"rows out of order", with(3, 0, 0, 0, 1, 2, 1, 2, 0, 1)},
		{"a row descending", with(3, 0, 0, 0, 1, 2, 0, 2, 0, 1)},
		{"a repeated edge", with(3, 0, 0, 0, 1, 2, 0, 1, 0, 1)},
		{"a node count far above the payload", with(1<<24, 0, 0, 1, 0)},
		{"an edge count far above the payload", with(3, 0, 0, 0, 1, 1<<24, 0, 1)},
	}
}

// TestGraphDamageIsCorrupt: a graph section SaveDK could not have written is
// damage in section "graph", however well it is framed, and a count the
// section cannot hold is refused before anything is sized by it.
func TestGraphDamageIsCorrupt(t *testing.T) {
	_, full := movieStream(t)
	for _, c := range graphDamage(t, full) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := LoadDK(bytes.NewReader(c.data))
		runtime.ReadMemStats(&after)
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.Section != "graph" {
			t.Errorf("%s: got %v, want a *CorruptError in section \"graph\"", c.name, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<22 {
			t.Errorf("%s: refusing it allocated %d bytes", c.name, n)
		}
	}
}
