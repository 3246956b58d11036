package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"dkindex"
)

// maxBatchMutations bounds one POST /v1/mutate body.
const maxBatchMutations = 256

// maxDocumentBody bounds one POST /v1/documents body.
const maxDocumentBody = 64 << 20

// checkK holds every similarity a mutation carries — k and each reqs value,
// whatever the op does with them — to 0..dkindex.MaxK. The check lives here
// and not in the index because WAL replay must accept whatever the Go API
// logged.
func checkK(m *dkindex.Mutation) error {
	if m.K < 0 || m.K > dkindex.MaxK {
		return fmt.Errorf("k must be in 0..%d", dkindex.MaxK)
	}
	for label, k := range m.Reqs {
		if k < 0 || k > dkindex.MaxK {
			return fmt.Errorf("reqs[%q] must be in 0..%d", label, dkindex.MaxK)
		}
	}
	return nil
}

// handleMutate is the write endpoint: a single mutation or a batch, applied
// through the index's group-commit pipeline. ?ack=sync (the default) answers
// after the batch is durable; ?ack=async answers 202 as soon as sequence
// numbers are assigned — poll /v1/watermark for settlement. A similarity
// outside 0..dkindex.MaxK anywhere in the body rejects the request before
// anything is applied. Otherwise batch members are validated independently: a
// rejected member carries its error in its ack while the rest commit.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	if s.rejectReadOnly(w) {
		return
	}
	async := false
	switch queryParam(r.URL.RawQuery, "ack") {
	case "", "sync":
	case "async":
		async = true
	default:
		writeError(w, http.StatusBadRequest, codeBadRequest, fmt.Errorf("ack= must be sync or async"))
		return
	}
	buf := bufPool.Get().(*bytes.Buffer)
	defer func() { buf.Reset(); bufPool.Put(buf) }()
	bp := mutationBufs.Get().(*[]dkindex.Mutation)
	var body mutateBody
	err := readBody(w, r, buf)
	if err == nil {
		body, err = decodeMutateBody(buf.Bytes(), *bp)
	}
	if err != nil {
		writeDecodeError(w, err)
		return
	}
	single := body.batch == nil
	ms := body.batch
	if single {
		if body.inline.Op == "" {
			writeError(w, http.StatusBadRequest, codeBadRequest,
				fmt.Errorf("op is required (or send a mutations array)"))
			return
		}
		ms = append((*bp)[:0], body.inline)
	} else {
		if body.inline.Op != "" {
			writeError(w, http.StatusBadRequest, codeBadRequest,
				fmt.Errorf("send either one inline mutation or mutations, not both"))
			return
		}
		if len(ms) == 0 {
			writeError(w, http.StatusBadRequest, codeBadRequest,
				fmt.Errorf("mutations must not be empty"))
			return
		}
		if len(ms) > maxBatchMutations {
			writeError(w, http.StatusRequestEntityTooLarge, codeTooLarge,
				fmt.Errorf("at most %d mutations per batch", maxBatchMutations))
			return
		}
	}
	for i := range ms {
		if err := checkK(&ms[i]); err != nil {
			if !single {
				err = fmt.Errorf("mutations[%d]: %w", i, err)
			}
			writeError(w, http.StatusBadRequest, codeBadRequest, err)
			return
		}
	}
	var acks []dkindex.Ack
	status := http.StatusOK
	if async {
		status = http.StatusAccepted
		acks, err = s.idx.ApplyBatchAsync(ms)
	} else {
		acks, err = s.idx.ApplyBatch(ms)
	}
	writeAcks(w, status, single, acks, err)
	clear(ms)
	*bp = ms[:0]
	mutationBufs.Put(bp)
}

// mutationBufs recycles the slices /v1/mutate decodes mutations into: the
// index reads a batch only until ApplyBatch returns, and ApplyBatchAsync
// copies it. A request that fails before it applies drops its slice.
var mutationBufs = sync.Pool{New: func() any { return new([]dkindex.Mutation) }}

// handleDocument is the raw-XML door: the body is the document itself, not
// JSON, and bounded by maxDocumentBody rather than maxJSONBody. It is applied
// as one add_document and answered exactly like one sent through /v1/mutate.
func (s *Server) handleDocument(w http.ResponseWriter, r *http.Request) {
	if s.rejectReadOnly(w) {
		return
	}
	doc, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxDocumentBody))
	if err != nil {
		writeDecodeError(w, bodyReadError(err))
		return
	}
	acks, err := s.idx.ApplyBatch([]dkindex.Mutation{{Op: dkindex.MutAddDocument, Doc: doc}})
	writeAcks(w, http.StatusOK, true, acks, err)
}

// ackFailure classifies a member's error: a write the log could not make
// durable is the server's failure and worth retrying; anything else is the
// index's verdict on the request.
func ackFailure(err error) (status int, code string) {
	if errors.Is(err, dkindex.ErrNotDurable) {
		return http.StatusInternalServerError, codeInternal
	}
	return http.StatusBadRequest, codeBadRequest
}

// writeAcks answers a write: the lone ack (or its error envelope) for the
// single form, the ack list under its watermark and generation for a batch.
// status is what success answers; a member the log could not make durable
// turns the whole response into a 500, so clients retry and the 5xx counters
// see a failing disk.
func writeAcks(w http.ResponseWriter, status int, single bool, acks []dkindex.Ack, err error) {
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	if single && acks[0].Err != nil {
		st, code := ackFailure(acks[0].Err)
		writeError(w, st, code, acks[0].Err)
		return
	}
	buf := bufPool.Get().(*bytes.Buffer)
	defer func() { buf.Reset(); bufPool.Put(buf) }()
	var b []byte
	if single {
		b = appendAck(buf.AvailableBuffer(), &acks[0])
	} else {
		b, status = appendAckBatch(buf.AvailableBuffer(), status, acks)
	}
	buf.Write(append(b, '\n'))
	writeBody(w, status, buf.Bytes())
}

// handleWatermark reports the write pipeline's progress: the acknowledged-
// durable watermark, the last assigned sequence number (their gap is the
// in-flight window) and the snapshot generation.
func (s *Server) handleWatermark(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"watermark":  s.idx.Watermark(),
		"lastSeq":    s.idx.LastSeq(),
		"generation": s.idx.Generation(),
	})
}

// The acks are append-encoded like query responses (encode.go): the bytes are
// what json.Encoder wrote for the ack structs this endpoint used to build,
// which the tests keep as the oracle.

// appendAck appends one ack object: seq and watermark always, then the
// generation, the error and its code, the node count and the mined
// requirements when they are set.
func appendAck(dst []byte, a *dkindex.Ack) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, a.Seq, 10)
	dst = append(dst, `,"watermark":`...)
	dst = strconv.AppendUint(dst, a.Watermark, 10)
	if a.Err != nil {
		_, code := ackFailure(a.Err)
		dst = append(dst, `,"error":`...)
		dst = appendJSONString(dst, a.Err.Error())
		dst = append(dst, `,"code":"`+code+`"`...)
	} else if a.Generation != 0 {
		dst = append(dst, `,"generation":`...)
		dst = strconv.AppendUint(dst, a.Generation, 10)
	}
	if len(a.Mapping) > 0 {
		dst = append(dst, `,"nodes":`...)
		dst = strconv.AppendInt(dst, int64(len(a.Mapping)), 10)
	}
	if len(a.Mined) > 0 {
		names := make([]string, 0, len(a.Mined))
		for name := range a.Mined {
			names = append(names, name)
		}
		slices.Sort(names)
		dst = append(dst, `,"requirements":{`...)
		for i, name := range names {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, name)
			dst = append(dst, ':')
			dst = strconv.AppendInt(dst, int64(a.Mined[name]), 10)
		}
		dst = append(dst, '}')
	}
	return append(dst, '}')
}

// appendAckBatch appends a batch answer — the acks under the highest
// watermark and generation among them — and returns the status to send:
// status, or 500 when a member was not made durable.
func appendAckBatch(dst []byte, status int, acks []dkindex.Ack) ([]byte, int) {
	var watermark, generation uint64
	dst = append(dst, `{"acks":[`...)
	for i := range acks {
		a := &acks[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendAck(dst, a)
		if a.Err != nil {
			if st, _ := ackFailure(a.Err); st == http.StatusInternalServerError {
				status = st
			}
		}
		watermark = max(watermark, a.Watermark)
		generation = max(generation, a.Generation)
	}
	dst = append(dst, `],"generation":`...)
	dst = strconv.AppendUint(dst, generation, 10)
	dst = append(dst, `,"watermark":`...)
	dst = strconv.AppendUint(dst, watermark, 10)
	return append(dst, '}'), status
}
