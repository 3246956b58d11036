package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed stage of a query trace ("match", "validate", "rpe_seed",
// ...). Offset is measured from the trace start so concurrent stages render
// unambiguously.
type Span struct {
	Name     string        `json:"name"`
	Offset   time.Duration `json:"offsetNS"`
	Duration time.Duration `json:"durationNS"`
}

// Trace is one sampled query execution. A nil *Trace is the uninstrumented
// case: every method no-ops (and StageStart skips the clock read), so
// evaluators can thread a trace unconditionally without perturbing the hot
// path. Traces are single-goroutine: one query fills one trace.
type Trace struct {
	Kind  string `json:"kind"` // "path", "rpe" or "twig"
	Query string `json:"query"`
	// Origin identifies who issued the query — the server stamps the request's
	// X-Request-ID here, linking /traces entries to /v1/slow and client logs.
	Origin string        `json:"origin,omitempty"`
	Start  time.Time     `json:"start"`
	Total  time.Duration `json:"totalNS"`
	Spans  []Span        `json:"spans,omitempty"`
	// The paper's cost counters, copied from the evaluation verbatim —
	// tracing observes the cost model, it never alters it.
	IndexNodesVisited  int `json:"indexNodesVisited"`
	DataNodesValidated int `json:"dataNodesValidated"`
	Validations        int `json:"validations"`
	Results            int `json:"results"`
}

// SetOrigin records who issued the traced query. Nil traces no-op.
func (t *Trace) SetOrigin(origin string) {
	if t == nil {
		return
	}
	t.Origin = origin
}

// StageStart returns the stage start time, or the zero time without touching
// the clock when the trace is nil.
func (t *Trace) StageStart() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// EndStage records a completed stage begun at start (from StageStart). Nil
// traces no-op.
func (t *Trace) EndStage(name string, start time.Time) {
	if t == nil {
		return
	}
	now := time.Now()
	t.Spans = append(t.Spans, Span{Name: name, Offset: start.Sub(t.Start), Duration: now.Sub(start)})
}

// RecordCost copies the paper's cost counters and the result count onto the
// trace. Nil traces no-op. Tracing only observes the cost model — the values
// recorded here are the evaluation's own counters, verbatim.
func (t *Trace) RecordCost(indexVisited, dataValidated, validations, results int) {
	if t == nil {
		return
	}
	t.IndexNodesVisited = indexVisited
	t.DataNodesValidated = dataValidated
	t.Validations = validations
	t.Results = results
}

// Tracer samples one query in every interval executions and retains the last
// keep finished traces. A nil *Tracer never samples. All methods are safe for
// concurrent use.
type Tracer struct {
	interval uint64
	n        atomic.Uint64
	mu       sync.Mutex
	recent   ring[*Trace]
}

// NewTracer samples one query in every interval (0 disables sampling) and
// keeps the most recent keep traces (minimum 1).
func NewTracer(interval, keep int) *Tracer {
	return &Tracer{interval: uint64(max(interval, 0)), recent: newRing[*Trace](keep)}
}

// Sample returns a fresh trace when this execution is sampled, nil otherwise.
// The caller passes the trace (possibly nil) down the evaluation and hands it
// back via Finish.
func (tr *Tracer) Sample(kind, query string) *Trace {
	if tr == nil || tr.interval == 0 {
		return nil
	}
	if tr.n.Add(1)%tr.interval != 0 {
		return nil
	}
	return &Trace{Kind: kind, Query: query, Start: time.Now()}
}

// Finish stamps the total duration and retains the trace. Nil tracer or nil
// trace no-op, so callers finish unconditionally.
func (tr *Tracer) Finish(t *Trace) {
	if tr == nil || t == nil {
		return
	}
	t.Total = time.Since(t.Start)
	tr.mu.Lock()
	tr.recent.push(t)
	tr.mu.Unlock()
}

// Recent returns up to n retained traces, oldest first (all retained traces
// when n <= 0 or exceeds the retention).
func (tr *Tracer) Recent(n int) []*Trace {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.recent.last(n)
}
