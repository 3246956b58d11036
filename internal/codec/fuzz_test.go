package codec

import (
	"bytes"
	"testing"

	"dkindex/internal/core"
	"dkindex/internal/graph"
)

// FuzzLoadDK feeds arbitrary bytes (seeded with a valid file, a well-formed
// stream of the retired version 1 it must reject, and truncations at every
// section boundary) to the index loader: it must never panic, and anything
// it accepts must be structurally valid.
func FuzzLoadDK(f *testing.F) {
	// A valid serialized index as the primary seed.
	fg := graph.FigureOneMovies()
	dk0 := core.Build(fg, core.ReqsFromNames(fg.Labels(), map[string]int{"title": 2}))
	var buf bytes.Buffer
	if err := SaveDK(&buf, dk0); err != nil {
		f.Fatal(err)
	}
	full := buf.Bytes()
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
