package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"

	"dkindex"
)

// maxBatchMutations bounds one POST /v1/mutate body.
const maxBatchMutations = 256

// maxDocumentBody bounds one POST /v1/documents body.
const maxDocumentBody = 64 << 20

// maxK is the largest local similarity a request may ask for. Construction
// runs one refinement round per level, under the writer mutex, so an
// unbounded k from the network is an unbounded stall of every write; no
// query the parser accepts is served better by a larger one.
const maxK = 64

// mutateItem is one mutation in a POST /v1/mutate body, mirroring
// dkindex.Mutation field for field. Op names are the dkindex.MutOp values.
type mutateItem struct {
	Op     string         `json:"op"`
	From   dkindex.NodeID `json:"from"`
	To     dkindex.NodeID `json:"to"`
	Doc    string         `json:"doc"`
	Label  string         `json:"label"`
	K      int            `json:"k"`
	Reqs   map[string]int `json:"reqs"`
	Budget int            `json:"budget"`
}

// checkK holds every similarity the item carries — k and each reqs value,
// whatever the op does with them — to 0..maxK. The bound lives here and not
// in the index because WAL replay must accept whatever the Go API logged.
func (it mutateItem) checkK() error {
	if it.K < 0 || it.K > maxK {
		return fmt.Errorf("k must be in 0..%d", maxK)
	}
	for label, k := range it.Reqs {
		if k < 0 || k > maxK {
			return fmt.Errorf("reqs[%q] must be in 0..%d", label, maxK)
		}
	}
	return nil
}

func (it mutateItem) mutation() dkindex.Mutation {
	return dkindex.Mutation{
		Op:         dkindex.MutOp(it.Op),
		From:       it.From,
		To:         it.To,
		Doc:        []byte(it.Doc),
		Label:      it.Label,
		K:          it.K,
		Reqs:       it.Reqs,
		SizeBudget: it.Budget,
	}
}

// mutateBody is the POST /v1/mutate union: either a single mutation inline
// (the embedded fields) or a batch under "mutations" — not both.
type mutateBody struct {
	mutateItem
	Mutations []mutateItem `json:"mutations"`
}

// mutateAck is the JSON shape of one mutation acknowledgement.
type mutateAck struct {
	Seq       uint64 `json:"seq"`
	Watermark uint64 `json:"watermark"`
	// Generation is the snapshot generation that made the mutation visible;
	// zero for rejected members and asynchronous acks.
	Generation uint64 `json:"generation,omitempty"`
	// Error and Code report a rejected member in place, the same envelope
	// fields top-level errors use.
	Error string `json:"error,omitempty"`
	Code  string `json:"code,omitempty"`
	// Nodes counts grafted nodes for add_document acks. For compact acks it
	// is the length of the renumbering — the data node count before the
	// compaction; what it dropped is the difference to /v1/stats afterwards.
	Nodes int `json:"nodes,omitempty"`
	// Requirements reports the mined per-label requirements for optimize acks.
	Requirements map[string]int `json:"requirements,omitempty"`
}

// handleMutate is the write endpoint: a single mutation or a batch, applied
// through the index's group-commit pipeline. ?ack=sync (the default) answers
// after the batch is durable; ?ack=async answers 202 as soon as sequence
// numbers are assigned — poll /v1/watermark for settlement. A similarity
// outside 0..maxK anywhere in the body rejects the request before anything is
// applied. Otherwise batch members are validated independently: a rejected
// member carries its error in its ack while the rest commit.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	if s.rejectReadOnly(w) {
		return
	}
	async := false
	switch r.URL.Query().Get("ack") {
	case "", "sync":
	case "async":
		async = true
	default:
		writeError(w, http.StatusBadRequest, codeBadRequest, fmt.Errorf("ack= must be sync or async"))
		return
	}
	var body mutateBody
	if err := decodeJSON(w, r, &body); err != nil {
		writeDecodeError(w, err)
		return
	}
	single := body.Mutations == nil
	var items []mutateItem
	if single {
		if body.Op == "" {
			writeError(w, http.StatusBadRequest, codeBadRequest,
				fmt.Errorf("op is required (or send a mutations array)"))
			return
		}
		items = []mutateItem{body.mutateItem}
	} else {
		if body.Op != "" {
			writeError(w, http.StatusBadRequest, codeBadRequest,
				fmt.Errorf("send either one inline mutation or mutations, not both"))
			return
		}
		if len(body.Mutations) == 0 {
			writeError(w, http.StatusBadRequest, codeBadRequest,
				fmt.Errorf("mutations must not be empty"))
			return
		}
		if len(body.Mutations) > maxBatchMutations {
			writeError(w, http.StatusRequestEntityTooLarge, codeTooLarge,
				fmt.Errorf("at most %d mutations per batch", maxBatchMutations))
			return
		}
		items = body.Mutations
	}
	ms := make([]dkindex.Mutation, len(items))
	for i, it := range items {
		if err := it.checkK(); err != nil {
			if !single {
				err = fmt.Errorf("mutations[%d]: %w", i, err)
			}
			writeError(w, http.StatusBadRequest, codeBadRequest, err)
			return
		}
		ms[i] = it.mutation()
	}
	if async {
		acks, err := s.idx.ApplyBatchAsync(ms)
		writeAcks(w, http.StatusAccepted, single, acks, err)
		return
	}
	acks, err := s.idx.ApplyBatch(ms)
	writeAcks(w, http.StatusOK, single, acks, err)
}

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
	out := make([]mutateAck, len(acks))
	var watermark, generation uint64
	for i, a := range acks {
		oa := mutateAck{Seq: a.Seq, Watermark: a.Watermark, Generation: a.Generation}
		if a.Err != nil {
			st, code := ackFailure(a.Err)
			if st == http.StatusInternalServerError {
				status = st
			}
			oa.Error, oa.Code, oa.Generation = a.Err.Error(), code, 0
		}
		if a.Mapping != nil {
			oa.Nodes = len(a.Mapping)
		}
		if a.Mined != nil {
			oa.Requirements = a.Mined
		}
		if a.Watermark > watermark {
			watermark = a.Watermark
		}
		if a.Generation > generation {
			generation = a.Generation
		}
		out[i] = oa
	}
	if single {
		writeJSON(w, status, out[0])
		return
	}
	writeJSON(w, status, map[string]any{
		"watermark":  watermark,
		"generation": generation,
		"acks":       out,
	})
}

// handleWatermark reports the write pipeline's progress: the acknowledged-
// durable watermark, the last assigned sequence number (their gap is the
// in-flight window), the snapshot generation, and whether group-commit
// batching is armed.
func (s *Server) handleWatermark(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"watermark":  s.idx.Watermark(),
		"lastSeq":    s.idx.LastSeq(),
		"generation": s.idx.Generation(),
		"batching":   s.idx.Batching(),
	})
}
