package codec

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"dkindex/internal/core"
	"dkindex/internal/datagen"
	"dkindex/internal/eval"
	"dkindex/internal/experiments"
	"dkindex/internal/graph"
)

func buildSample(t *testing.T) *core.DK {
	t.Helper()
	g := datagen.MustGraph(datagen.XMark(datagen.XMarkScale(0.02)))
	reqs := core.ReqsFromNames(g.Labels(), map[string]int{"category": 3, "name": 2})
	return core.Build(g, reqs)
}

func roundTrip(t *testing.T, dk *core.DK) *core.DK {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveDK(&buf, dk); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDK(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestRoundTripPreservesEverything(t *testing.T) {
	dk := buildSample(t)
	got := roundTrip(t, dk)

	if err := got.IG.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := core.CheckInvariant(got.IG); err != nil {
		t.Fatal(err)
	}
	if got.IG.NumNodes() != dk.IG.NumNodes() || got.IG.NumEdges() != dk.IG.NumEdges() {
		t.Errorf("index shape changed: %d/%d -> %d/%d",
			dk.IG.NumNodes(), dk.IG.NumEdges(), got.IG.NumNodes(), got.IG.NumEdges())
	}
	gd, dd := got.IG.Data(), dk.IG.Data()
	if gd.NumNodes() != dd.NumNodes() || gd.NumEdges() != dd.NumEdges() {
		t.Error("data graph shape changed")
	}
	if gd.Root() != dd.Root() {
		t.Error("root changed")
	}
	for d := 0; d < dd.NumNodes(); d++ {
		n := graph.NodeID(d)
		if gd.LabelName(n) != dd.LabelName(n) {
			t.Fatalf("label of node %d changed", d)
		}
		if got.IG.IndexOf(n) != dk.IG.IndexOf(n) {
			t.Fatalf("extent assignment of node %d changed", d)
		}
	}
	for b := 0; b < dk.IG.NumNodes(); b++ {
		if got.IG.K(graph.NodeID(b)) != dk.IG.K(graph.NodeID(b)) {
			t.Fatalf("similarity of index node %d changed", b)
		}
	}
	if len(got.LabelReqs) != len(dk.LabelReqs) {
		t.Error("requirements changed")
	}
	for l, k := range dk.LabelReqs {
		if got.LabelReqs[l] != k {
			t.Errorf("requirement for label %d changed", l)
		}
	}
}

func TestRoundTripQueriesIdentically(t *testing.T) {
	dk := buildSample(t)
	got := roundTrip(t, dk)
	g := dk.IG.Data()
	rng := rand.New(rand.NewSource(3))
	for qi := 0; qi < 20; qi++ {
		n := graph.NodeID(rng.Intn(g.NumNodes()))
		q := eval.Query{g.Label(n)}
		for len(q) < 4 {
			ch := g.Children(n)
			if len(ch) == 0 {
				break
			}
			n = ch[rng.Intn(len(ch))]
			q = append(q, g.Label(n))
		}
		a, ca := eval.Index(dk.IG, q)
		b, cb := eval.Index(got.IG, q)
		if !eval.SameResult(a, b) {
			t.Fatalf("query %s differs after round trip", q.Format(g.Labels()))
		}
		if ca.Total() != cb.Total() {
			t.Fatalf("query %s cost differs after round trip: %d vs %d",
				q.Format(g.Labels()), ca.Total(), cb.Total())
		}
	}
}

// TestSaveLoadSaveIsIdentity: a loaded index saves to the bytes it was
// loaded from, on all three datasets with a few reference edges added.
func TestSaveLoadSaveIsIdentity(t *testing.T) {
	for _, load := range []func(float64, int64) (*experiments.Dataset, error){
		experiments.XMarkDataset, experiments.NasaDataset, experiments.DblpDataset,
	} {
		ds, err := load(0.03, 1)
		if err != nil {
			t.Fatal(err)
		}
		dk := core.Build(ds.G, ds.W.Requirements())
		edges, err := ds.RandomEdges(10, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range edges {
			dk.AddEdge(e[0], e[1])
		}
		var first, second bytes.Buffer
		if err := SaveDK(&first, dk); err != nil {
			t.Fatal(err)
		}
		got, err := LoadDK(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", ds.Name, err)
		}
		if err := SaveDK(&second, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Errorf("%s: saved %d bytes, and %d after a load", ds.Name, first.Len(), second.Len())
		}
	}
}

func TestRoundTripAfterUpdates(t *testing.T) {
	dk := buildSample(t)
	g := dk.IG.Data()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20; i++ {
		u := graph.NodeID(rng.Intn(g.NumNodes()))
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		if u != v && v != g.Root() {
			dk.AddEdge(u, v)
		}
	}
	got := roundTrip(t, dk)
	if err := got.IG.Validate(); err != nil {
		t.Fatal(err)
	}
	// Decayed similarities survive the round trip.
	for b := 0; b < dk.IG.NumNodes(); b++ {
		if got.IG.K(graph.NodeID(b)) != dk.IG.K(graph.NodeID(b)) {
			t.Fatalf("decayed similarity of node %d lost", b)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"DKIX",               // truncated before version
		"NOPE\x01",           // wrong magic
		"DKIX\x63",           // wrong version
		"DKIX\x01\xff\xff",   // implausible label count prefix then EOF
		"DKIX\x01\x01\x03ab", // truncated label string
	}
	for _, c := range cases {
		if _, err := LoadDK(strings.NewReader(c)); err == nil {
			t.Errorf("garbage %q accepted", c)
		}
	}
}

func TestLoadRejectsTruncation(t *testing.T) {
	dk := buildSample(t)
	var buf bytes.Buffer
	if err := SaveDK(&buf, dk); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{5, len(full) / 4, len(full) / 2, len(full) - 1} {
		if _, err := LoadDK(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// saveLegacy encodes dk in the retired version-1 format: the same section
// payloads under version byte 1, concatenated without length prefixes or
// checksums. Nothing reads it any more; it is kept as an input LoadDK must
// turn away.
func saveLegacy(dk *core.DK) []byte {
	var buf bytes.Buffer
	buf.Write(magic[:])
	buf.WriteByte(1)
	enc := &encoder{w: &buf}
	g := dk.IG.Data()
	encodeLabels(enc, g)
	encodeGraph(enc, g)
	encodeIndex(enc, dk.IG)
	encodeReqs(enc, dk)
	return buf.Bytes()
}

// TestVersion1IsRejected: a well-formed version-1 stream is a foreign file.
func TestVersion1IsRejected(t *testing.T) {
	_, err := LoadDK(bytes.NewReader(saveLegacy(buildSample(t))))
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("version-1 stream = %v, want ErrBadFormat", err)
	}
}

// frameRanges walks a stream and returns the byte ranges
// [start,end) of each section frame, keyed by section name.
func frameRanges(t testing.TB, data []byte) map[string][2]int {
	t.Helper()
	out := make(map[string][2]int)
	off := 5 // magic + version
	for off < len(data) {
		start := off
		id := data[off]
		off++
		plen, n := binaryUvarint(data[off:])
		if n <= 0 {
			t.Fatalf("bad frame length at %d", off)
		}
		off += n + int(plen) + 4
		out[sectionNames[id]] = [2]int{start, off}
	}
	return out
}

func binaryUvarint(b []byte) (uint64, int) {
	var v uint64
	var s uint
	for i, c := range b {
		if c < 0x80 {
			return v | uint64(c)<<s, i + 1
		}
		v |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0
}

func TestCorruptionReportsSectionAndOffset(t *testing.T) {
	dk := buildSample(t)
	var buf bytes.Buffer
	if err := SaveDK(&buf, dk); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	frames := frameRanges(t, full)

	for _, section := range []string{"labels", "graph", "index", "requirements"} {
		r, ok := frames[section]
		if !ok {
			t.Fatalf("stream has no %s frame", section)
		}
		cp := append([]byte(nil), full...)
		cp[(r[0]+r[1])/2] ^= 0x5a // flip a payload byte mid-frame
		_, err := LoadDK(bytes.NewReader(cp))
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("%s corruption: want *CorruptError, got %v", section, err)
		}
		if ce.Section != section {
			t.Errorf("%s corruption reported in section %q", section, ce.Section)
		}
		if ce.Offset != int64(r[0]) {
			t.Errorf("%s corruption reported at %d, frame starts at %d", section, ce.Offset, r[0])
		}
	}
}

func TestTruncationReportsCorruptError(t *testing.T) {
	dk := buildSample(t)
	var buf bytes.Buffer
	if err := SaveDK(&buf, dk); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 5; cut < len(full); cut += len(full) / 17 {
		_, err := LoadDK(bytes.NewReader(full[:cut]))
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("truncation at %d: want *CorruptError, got %v", cut, err)
		}
	}
}

// Property: random corruption of a single byte either fails to load or
// loads into a structurally valid index (never panics, never corrupts
// silently into an invalid structure).
func TestQuickCorruptionIsHandled(t *testing.T) {
	dk := buildSample(t)
	var buf bytes.Buffer
	if err := SaveDK(&buf, dk); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	f := func(pos uint32, val byte) bool {
		cp := append([]byte(nil), full...)
		cp[int(pos)%len(cp)] ^= val | 1
		got, err := LoadDK(bytes.NewReader(cp))
		if err != nil {
			return true
		}
		return got.IG.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
