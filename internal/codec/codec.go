// Package codec persists D(k)-indexes to a compact, versioned binary format
// and restores them: the data graph (labels, edges, root), the extents and
// local similarities, and the query-load requirements. Index adjacency is
// re-derived on load rather than stored.
//
// Version 2 frames every section with a length prefix and a CRC32 checksum,
// so truncation and corruption are detected — and reported with the section
// name and byte offset via *CorruptError — instead of decoding into garbage.
// It is the only version read: the unframed, checksum-free version 1 answers
// ErrBadFormat like any other foreign file.
//
// Layout (all integers are unsigned varints unless noted):
//
//	magic "DKIX", version byte
//	then, per section: section id byte, payload length, payload,
//	                   CRC32/IEEE of the payload (4 bytes little-endian)
//
// Section payloads, in file order:
//
//	labels:        count, then length-prefixed strings
//	graph:         node count, per-node label id, root+1 (0 = none),
//	               edge count, edges as (from, to) pairs
//	index:         node count, per-node: local similarity, extent size,
//	               extent node ids delta-coded
//	requirements:  count, (label id, k) pairs
package codec

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"dkindex/internal/core"
	"dkindex/internal/graph"
	"dkindex/internal/index"
)

var magic = [4]byte{'D', 'K', 'I', 'X'}

// Version is the format version (checksummed frames), the only one read.
const Version = 2

// ErrBadFormat reports a foreign file: wrong magic or unknown version.
var ErrBadFormat = errors.New("codec: not a D(k)-index file")

// Section ids of the framing, in file order.
const (
	sectionLabels byte = 1 + iota
	sectionGraph
	sectionIndex
	sectionReqs
)

var sectionNames = map[byte]string{
	sectionLabels: "labels",
	sectionGraph:  "graph",
	sectionIndex:  "index",
	sectionReqs:   "requirements",
}

// CorruptError reports a stream that carries the D(k)-index magic but whose
// content is truncated, checksum-damaged or semantically impossible. Offset
// is the byte position in the stream where the damage was detected; Section
// names the framing section being read.
type CorruptError struct {
	Section string
	Offset  int64
	Err     error
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("codec: corrupt stream in section %q at byte %d: %v", e.Section, e.Offset, e.Err)
}

func (e *CorruptError) Unwrap() error { return e.Err }

// corrupt wraps err with section and offset context.
func corrupt(section string, offset int64, err error) error {
	return &CorruptError{Section: section, Offset: offset, Err: err}
}

// SaveDK writes the index and everything needed to restore it, in the
// current (checksummed) format.
func SaveDK(w io.Writer, dk *core.DK) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	if err := bw.WriteByte(Version); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := &encoder{w: &buf}
	g := dk.IG.Data()

	for _, sec := range []struct {
		id     byte
		encode func()
	}{
		{sectionLabels, func() { encodeLabels(enc, g) }},
		{sectionGraph, func() { encodeGraph(enc, g) }},
		{sectionIndex, func() { encodeIndex(enc, dk.IG) }},
		{sectionReqs, func() { encodeReqs(enc, dk) }},
	} {
		buf.Reset()
		sec.encode()
		if err := writeFrame(bw, sec.id, buf.Bytes()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeFrame emits one section: id, length, payload, checksum.
func writeFrame(bw *bufio.Writer, id byte, payload []byte) error {
	if err := bw.WriteByte(id); err != nil {
		return err
	}
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(payload)))
	if _, err := bw.Write(lenBuf[:n]); err != nil {
		return err
	}
	if _, err := bw.Write(payload); err != nil {
		return err
	}
	var sumBuf [4]byte
	binary.LittleEndian.PutUint32(sumBuf[:], crc32.ChecksumIEEE(payload))
	_, err := bw.Write(sumBuf[:])
	return err
}

func encodeLabels(enc *encoder, g *graph.Graph) {
	tab := g.Labels()
	enc.uint(uint64(tab.Len()))
	for l := 0; l < tab.Len(); l++ {
		enc.str(tab.Name(graph.LabelID(l)))
	}
}

func encodeGraph(enc *encoder, g *graph.Graph) {
	enc.uint(uint64(g.NumNodes()))
	for n := 0; n < g.NumNodes(); n++ {
		enc.uint(uint64(g.Label(graph.NodeID(n))))
	}
	enc.uint(uint64(g.Root() + 1))
	enc.uint(uint64(g.NumEdges()))
	for n := 0; n < g.NumNodes(); n++ {
		for _, c := range g.Children(graph.NodeID(n)) {
			enc.uint(uint64(n))
			enc.uint(uint64(c))
		}
	}
}

func encodeIndex(enc *encoder, ig *index.IndexGraph) {
	enc.uint(uint64(ig.NumNodes()))
	for b := 0; b < ig.NumNodes(); b++ {
		enc.uint(uint64(ig.K(graph.NodeID(b))))
		ext := ig.ExtentSet(graph.NodeID(b))
		enc.uint(uint64(ext.Len()))
		prev := graph.NodeID(0)
		ext.Iterate(func(d graph.NodeID) bool {
			enc.uint(uint64(d - prev)) // extents are sorted ascending
			prev = d
			return true
		})
	}
}

func encodeReqs(enc *encoder, dk *core.DK) {
	labels := dk.LabelReqs.SortedLabels()
	enc.uint(uint64(len(labels)))
	for _, l := range labels {
		enc.uint(uint64(l))
		enc.uint(uint64(dk.LabelReqs[l]))
	}
}

// LoadDK restores an index written by SaveDK. A stream that is not one —
// wrong magic, or any version byte but Version — answers ErrBadFormat; damage
// inside one is reported as *CorruptError.
func LoadDK(r io.Reader) (*core.DK, error) {
	cr := &countingReader{r: bufio.NewReader(r)}
	var m [5]byte
	if _, err := io.ReadFull(cr, m[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if [4]byte{m[0], m[1], m[2], m[3]} != magic {
		return nil, ErrBadFormat
	}
	if m[4] != Version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, m[4])
	}
	st := &loadState{}
	if err := st.loadFramed(cr); err != nil {
		return nil, err
	}
	ig, err := index.Reconstruct(st.g, st.extents, st.ks)
	if err != nil {
		return nil, corrupt("index", cr.n, err)
	}
	return &core.DK{IG: ig, LabelReqs: st.reqs}, nil
}

// loadFramed reads the section frames.
func (st *loadState) loadFramed(cr *countingReader) error {
	for _, want := range []byte{sectionLabels, sectionGraph, sectionIndex, sectionReqs} {
		name := sectionNames[want]
		frameStart := cr.n
		id, err := cr.ReadByte()
		if err != nil {
			return corrupt(name, frameStart, fmt.Errorf("truncated frame header: %w", err))
		}
		if id != want {
			return corrupt(name, frameStart, fmt.Errorf("unexpected section id %d (want %d)", id, want))
		}
		plen, err := binary.ReadUvarint(cr)
		if err != nil {
			return corrupt(name, frameStart, fmt.Errorf("truncated frame length: %w", err))
		}
		if plen > 1<<31 {
			return corrupt(name, frameStart, fmt.Errorf("implausible section length %d", plen))
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(cr, payload); err != nil {
			return corrupt(name, frameStart, fmt.Errorf("truncated section payload: %w", err))
		}
		var sumBuf [4]byte
		if _, err := io.ReadFull(cr, sumBuf[:]); err != nil {
			return corrupt(name, frameStart, fmt.Errorf("truncated section checksum: %w", err))
		}
		if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(sumBuf[:]); got != want {
			return corrupt(name, frameStart, fmt.Errorf("checksum mismatch (computed %08x, stored %08x)", got, want))
		}
		dec := &decoder{r: bytes.NewReader(payload)}
		if err := st.decodeSection(want, dec); err != nil {
			return corrupt(name, frameStart, err)
		}
	}
	return nil
}

// loadState accumulates decoded sections until the index is reassembled.
type loadState struct {
	tab     *graph.LabelTable
	g       *graph.Graph
	nLabels uint64
	nNodes  uint64
	ks      []int
	extents [][]graph.NodeID
	reqs    core.Requirements
}

func (st *loadState) decodeSection(id byte, dec *decoder) error {
	switch id {
	case sectionLabels:
		return st.decodeLabels(dec)
	case sectionGraph:
		return st.decodeGraph(dec)
	case sectionIndex:
		return st.decodeIndex(dec)
	case sectionReqs:
		return st.decodeReqs(dec)
	}
	return fmt.Errorf("unknown section id %d", id)
}

func (st *loadState) decodeLabels(dec *decoder) error {
	st.tab = graph.NewLabelTable()
	st.nLabels = dec.uint()
	if st.nLabels > 1<<24 {
		return fmt.Errorf("implausible label count %d", st.nLabels)
	}
	for i := uint64(0); i < st.nLabels; i++ {
		name := dec.str()
		if dec.err != nil {
			return dec.err
		}
		if got := st.tab.Intern(name); got != graph.LabelID(i) {
			return fmt.Errorf("duplicate label %q", name)
		}
	}
	return dec.err
}

func (st *loadState) decodeGraph(dec *decoder) error {
	st.g = graph.NewWithLabels(st.tab)
	st.nNodes = dec.uint()
	if st.nNodes > 1<<31 {
		return fmt.Errorf("implausible node count %d", st.nNodes)
	}
	for i := uint64(0); i < st.nNodes; i++ {
		l := dec.uint()
		if dec.err != nil {
			return dec.err
		}
		if l >= st.nLabels {
			return fmt.Errorf("node %d has label %d out of range", i, l)
		}
		st.g.AddNodeID(graph.LabelID(l))
	}
	if root := dec.uint(); root > 0 {
		if root > st.nNodes {
			return fmt.Errorf("root %d out of range", root-1)
		}
		st.g.SetRoot(graph.NodeID(root - 1))
	}
	nEdges := dec.uint()
	if nEdges > 1<<32 {
		return fmt.Errorf("implausible edge count %d", nEdges)
	}
	for i := uint64(0); i < nEdges; i++ {
		from, to := dec.uint(), dec.uint()
		if dec.err != nil {
			return dec.err
		}
		if from >= st.nNodes || to >= st.nNodes {
			return fmt.Errorf("edge %d-%d out of range", from, to)
		}
		st.g.AddEdge(graph.NodeID(from), graph.NodeID(to))
	}
	return dec.err
}

func (st *loadState) decodeIndex(dec *decoder) error {
	nIdx := dec.uint()
	if nIdx > st.nNodes {
		return fmt.Errorf("more index nodes (%d) than data nodes (%d)", nIdx, st.nNodes)
	}
	st.ks = make([]int, nIdx)
	st.extents = make([][]graph.NodeID, nIdx)
	for b := uint64(0); b < nIdx; b++ {
		st.ks[b] = int(dec.uint())
		sz := dec.uint()
		if dec.err != nil {
			return dec.err
		}
		if sz == 0 || sz > st.nNodes {
			return fmt.Errorf("extent %d has implausible size %d", b, sz)
		}
		ext := make([]graph.NodeID, sz)
		cur := uint64(0)
		for i := uint64(0); i < sz; i++ {
			cur += dec.uint()
			if cur >= st.nNodes {
				return fmt.Errorf("extent %d references node %d out of range", b, cur)
			}
			ext[i] = graph.NodeID(cur)
		}
		st.extents[b] = ext
	}
	return dec.err
}

func (st *loadState) decodeReqs(dec *decoder) error {
	st.reqs = make(core.Requirements)
	nReqs := dec.uint()
	if nReqs > st.nLabels {
		return fmt.Errorf("more requirements (%d) than labels", nReqs)
	}
	for i := uint64(0); i < nReqs; i++ {
		l, k := dec.uint(), dec.uint()
		if l >= st.nLabels {
			return fmt.Errorf("requirement label %d out of range", l)
		}
		st.reqs[graph.LabelID(l)] = int(k)
	}
	return dec.err
}

// countingReader tracks the byte offset for error reporting.
type countingReader struct {
	r *bufio.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.n++
	}
	return b, err
}

type encoder struct {
	w   *bytes.Buffer
	buf [binary.MaxVarintLen64]byte
}

func (e *encoder) uint(v uint64) {
	n := binary.PutUvarint(e.buf[:], v)
	e.w.Write(e.buf[:n])
}

func (e *encoder) str(s string) {
	e.uint(uint64(len(s)))
	e.w.WriteString(s)
}

// decoder reads one section's payload.
type decoder struct {
	r   *bytes.Reader
	err error
}

func (d *decoder) uint() uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(d.r)
	if err != nil {
		d.err = fmt.Errorf("truncated stream: %w", err)
		return 0
	}
	return v
}

func (d *decoder) str() string {
	n := d.uint()
	if d.err != nil {
		return ""
	}
	if n > 1<<20 {
		d.err = fmt.Errorf("implausible string length %d", n)
		return ""
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(d.r, buf); err != nil {
		d.err = fmt.Errorf("truncated string: %w", err)
		return ""
	}
	return string(buf)
}
