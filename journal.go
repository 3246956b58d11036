package dkindex

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"dkindex/internal/wal"
)

// The write-ahead-log vocabulary: one op per replayable mutation. Payloads
// are self-contained — label *names* rather than ids, raw document bytes
// rather than parsed graphs — so a record replays identically against any
// state reached by the records before it. Values are part of the on-disk
// format; never renumber, only append.
const (
	opEdgeAdd    wal.Op = 1
	opEdgeRemove wal.Op = 2
	opDocument   wal.Op = 3
	opPromote    wal.Op = 4
	opDemote     wal.Op = 5
	opSetReqs    wal.Op = 6
	opCompact    wal.Op = 7
)

// walMutOps names each write-ahead op by the Mutation op that replays it.
// MutOptimize has no row: it journals the requirements it mined, as opSetReqs.
var walMutOps = map[wal.Op]MutOp{
	opEdgeAdd:    MutAddEdge,
	opEdgeRemove: MutRemoveEdge,
	opDocument:   MutAddDocument,
	opPromote:    MutPromote,
	opDemote:     MutDemote,
	opSetReqs:    MutSetRequirements,
	opCompact:    MutCompact,
}

// decodeWALMutation maps one write-ahead record back onto the Mutation that
// produced it. Unknown ops are errors — a log or a feed never carries
// vocabulary that cannot be applied faithfully.
func decodeWALMutation(op wal.Op, payload []byte) (Mutation, error) {
	m := Mutation{Op: walMutOps[op]}
	var err error
	switch m.Op {
	case MutAddEdge, MutRemoveEdge:
		m.From, m.To, err = decodeEdgePayload(payload)
	case MutAddDocument:
		m.DocOptions, m.Doc, err = decodeDocumentPayload(payload)
	case MutPromote:
		m.Label, m.K, err = decodePromotePayload(payload)
	case MutDemote, MutSetRequirements:
		m.Reqs, err = decodeReqsPayload(payload)
	case MutCompact:
		// The op is the whole record.
	default:
		err = fmt.Errorf("dkindex: unknown wal op %d", byte(op))
	}
	if err != nil {
		return Mutation{}, err
	}
	return m, nil
}

// ApplyWALFrame commits the records of one logged frame as the commit that
// wrote the frame did: decoded to Mutations and applied as one ApplyBatch —
// one clone, one publish, one generation. Crash recovery (OpenStore) and a
// replica (internal/replica) replay every frame through it, so the live, the
// recovered and the replicated index reach each state by the same commits. A
// record that does not decode fails the frame before anything applies. A
// member the batch rejects fails it too, after the frame's other members
// committed (a batch applies its members independently); either way the log
// and the state it is replayed onto have diverged.
func (x *Index) ApplyWALFrame(recs []wal.Record) error {
	ms := make([]Mutation, len(recs))
	for i, r := range recs {
		m, err := decodeWALMutation(r.Op, r.Payload)
		if err != nil {
			return fmt.Errorf("record %d: %w", r.Seq, err)
		}
		ms[i] = m
	}
	acks, err := x.ApplyBatch(ms)
	if err != nil {
		return err
	}
	for i, a := range acks {
		if a.Err != nil {
			return fmt.Errorf("record %d: %w", recs[i].Seq, a.Err)
		}
	}
	return nil
}

// payloadReader decodes the uvarint/string payload encoding with bounds
// checks; any damage surfaces as an error, never a panic, because a WAL
// checksum only vouches for the bytes, not for this layer's framing.
type payloadReader struct {
	b   []byte
	off int
}

func (p *payloadReader) uint() (uint64, error) {
	v, n := binary.Uvarint(p.b[p.off:])
	if n <= 0 {
		return 0, fmt.Errorf("dkindex: truncated wal payload at byte %d", p.off)
	}
	p.off += n
	return v, nil
}

func (p *payloadReader) str() (string, error) {
	n, err := p.uint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(p.b)-p.off) {
		return "", fmt.Errorf("dkindex: wal payload string overruns frame (%d bytes at %d)", n, p.off)
	}
	s := string(p.b[p.off : p.off+int(n)])
	p.off += int(n)
	return s, nil
}

func (p *payloadReader) rest() []byte { return p.b[p.off:] }

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendEdgePayload appends an edge record's payload to dst.
func appendEdgePayload(dst []byte, from, to NodeID) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(dst, uint64(from)), uint64(to))
}

func decodeEdgePayload(payload []byte) (from, to NodeID, err error) {
	p := &payloadReader{b: payload}
	f, err := p.uint()
	if err != nil {
		return 0, 0, err
	}
	t, err := p.uint()
	if err != nil {
		return 0, 0, err
	}
	if f > math.MaxInt32 || t > math.MaxInt32 {
		return 0, 0, fmt.Errorf("dkindex: wal edge %d-%d has an endpoint past the node id range", f, t)
	}
	return NodeID(f), NodeID(t), nil
}

func encodePromotePayload(label string, k int) []byte {
	b := binary.AppendUvarint(nil, uint64(k))
	return appendStr(b, label)
}

func decodePromotePayload(payload []byte) (label string, k int, err error) {
	p := &payloadReader{b: payload}
	kk, err := p.uint()
	if err != nil {
		return "", 0, err
	}
	label, err = p.str()
	if err != nil {
		return "", 0, err
	}
	return label, int(kk), nil
}

// encodeReqsPayload serializes a by-name requirements map, sorted by name so
// identical maps produce identical records.
func encodeReqsPayload(reqs map[string]int) []byte {
	names := make([]string, 0, len(reqs))
	for n := range reqs {
		names = append(names, n)
	}
	sort.Strings(names)
	b := binary.AppendUvarint(nil, uint64(len(names)))
	for _, n := range names {
		b = appendStr(b, n)
		b = binary.AppendUvarint(b, uint64(reqs[n]))
	}
	return b
}

func decodeReqsPayload(payload []byte) (map[string]int, error) {
	p := &payloadReader{b: payload}
	n, err := p.uint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(payload)) {
		return nil, fmt.Errorf("dkindex: wal requirements count %d overruns frame", n)
	}
	out := make(map[string]int, n)
	for i := uint64(0); i < n; i++ {
		name, err := p.str()
		if err != nil {
			return nil, err
		}
		k, err := p.uint()
		if err != nil {
			return nil, err
		}
		out[name] = int(k)
	}
	return out, nil
}

// encodeDocumentPayload captures an AddDocument call: the loader options that
// shape the graph (string-list counts are shifted by one so nil — "use the
// defaults" — survives the round trip) followed by the raw document bytes.
func encodeDocumentPayload(opts *LoadOptions, raw []byte) []byte {
	var flags byte
	if opts.IncludeValues {
		flags |= 1
	}
	if opts.IncludeAttributes {
		flags |= 2
	}
	b := []byte{flags}
	b = appendStrList(b, opts.IDAttrs)
	b = appendStrList(b, opts.IDRefAttrs)
	return append(b, raw...)
}

func appendStrList(b []byte, list []string) []byte {
	if list == nil {
		return binary.AppendUvarint(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(list))+1)
	for _, s := range list {
		b = appendStr(b, s)
	}
	return b
}

func decodeDocumentPayload(payload []byte) (*LoadOptions, []byte, error) {
	if len(payload) < 1 {
		return nil, nil, fmt.Errorf("dkindex: empty document wal payload")
	}
	opts := &LoadOptions{
		IncludeValues:     payload[0]&1 != 0,
		IncludeAttributes: payload[0]&2 != 0,
	}
	p := &payloadReader{b: payload, off: 1}
	var err error
	if opts.IDAttrs, err = readStrList(p); err != nil {
		return nil, nil, err
	}
	if opts.IDRefAttrs, err = readStrList(p); err != nil {
		return nil, nil, err
	}
	return opts, p.rest(), nil
}

func readStrList(p *payloadReader) ([]string, error) {
	n, err := p.uint()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	n--
	if n > uint64(len(p.b)) {
		return nil, fmt.Errorf("dkindex: wal string list count %d overruns frame", n)
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		s, err := p.str()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}
