package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// respWriter is the driver's http.ResponseWriter: it counts the body's bytes
// and keeps them only when asked to.
type respWriter struct {
	hdr    http.Header
	status int
	n      int
	keep   bool
	body   []byte
}

func (w *respWriter) Header() http.Header { return w.hdr }

func (w *respWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *respWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.n += len(p)
	if w.keep {
		w.body = append(w.body, p...)
	}
	return len(p), nil
}

func (w *respWriter) reset(keep bool) {
	clear(w.hdr)
	w.status, w.n, w.keep, w.body = 0, 0, keep, w.body[:0]
}

// driver is the single closed-loop client: it calls the handler's ServeHTTP
// in its own goroutine, one op after the other, with requests built before
// the clock starts.
type driver struct {
	h     http.Handler
	tr    *tracer // nil in untraced runs
	plan  []planOp
	reads []*http.Request
	// wantLen, when non-nil, is the body length every read of a plan op must
	// have (read-only workloads, where nothing changes between ops).
	wantLen []int
	// onRead, when set, receives the body of every timed read (the traced
	// replay reads the hit ratio off the responses).
	onRead func(body []byte)
	w      respWriter
	lat    []int64 // per-op latencies of the current round, reused
}

func newDriver(h http.Handler, tr *tracer, plan []planOp, reads []*http.Request) *driver {
	return &driver{h: h, tr: tr, plan: plan, reads: reads, w: respWriter{hdr: make(http.Header)}}
}

// readRequests builds GET /v1/query?kind=...&q=...&limit=100 for every plan op.
func readRequests(plan []planOp) ([]*http.Request, error) {
	reads := make([]*http.Request, len(plan))
	for i, op := range plan {
		u := "/v1/query?kind=" + op.Kind + "&q=" + url.QueryEscape(op.Query) + "&limit=100"
		r, err := http.NewRequest(http.MethodGet, u, nil)
		if err != nil {
			return nil, err
		}
		reads[i] = r
	}
	return reads, nil
}

func mutateRequest(body []byte) *http.Request {
	r, err := http.NewRequest(http.MethodPost, "/v1/mutate", bytes.NewReader(body))
	if err != nil {
		panic(err) // the method and URL are constants
	}
	r.Header.Set("Content-Type", "application/json")
	return r
}

// serve runs one op through the handler, under a root span when tracing.
func (d *driver) serve(r *http.Request, keep bool) {
	d.w.reset(keep)
	if d.tr != nil {
		d.tr.nextOp()
		s := d.tr.begin("server")
		d.h.ServeHTTP(&d.w, r)
		d.tr.end(s)
		return
	}
	d.h.ServeHTTP(&d.w, r)
}

// errorMarker is what a rejected mutation leaves in a /v1/mutate response.
var errorMarker = []byte(`"error"`)

// opOK checks the response of the op just served: reads by status and body
// length, writes by status and the absence of any rejected member.
func (d *driver) opOK(op int32) bool {
	if d.w.status != http.StatusOK || d.w.n == 0 {
		return false
	}
	if op < 0 {
		return !bytes.Contains(d.w.body, errorMarker)
	}
	// A sampled trace turns "traced":false into "traced":true, one byte less.
	return d.wantLen == nil || d.w.n == d.wantLen[op] || d.w.n == d.wantLen[op]-1
}

// queryReply is the part of a /v1/query response verification reads.
type queryReply struct {
	Count   int  `json:"count"`
	Traced  bool `json:"traced"`
	Results []struct {
		Node int `json:"node"`
	} `json:"results"`
}

// verifyPlan serves every plan op once and checks the decoded count
// (and the listed results, capped by limit=100) against want. With fixLen it
// also records each op's body length for the timed ops to be checked against.
// It returns how many ops it attempted and how many failed.
func (d *driver) verifyPlan(want []int, fixLen bool) (attempted, failed int, firstErr error) {
	lens := make([]int, len(d.plan))
	for i, r := range d.reads {
		attempted++
		d.serve(r, true)
		var rep queryReply
		err := json.Unmarshal(d.w.body, &rep)
		switch {
		case d.w.status != http.StatusOK:
			err = fmt.Errorf("status %d: %s", d.w.status, bytes.TrimSpace(d.w.body))
		case err != nil:
		case rep.Count != want[i]:
			err = fmt.Errorf("count %d, oracle %d", rep.Count, want[i])
		case len(rep.Results) != min(want[i], 100):
			err = fmt.Errorf("%d results listed, want %d", len(rep.Results), min(want[i], 100))
		}
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("%s %q: %w", d.plan[i].Kind, d.plan[i].Query, err)
			}
		}
		lens[i] = d.w.n
		if rep.Traced {
			lens[i]++
		}
	}
	if fixLen {
		d.wantLen = lens
	}
	return attempted, failed, firstErr
}

// roundStat is what one round measured.
type roundStat struct {
	ops, failed  int
	wallNS       int64
	cpuNS        int64 // getrusage user+sys of the whole process
	allocBytes   uint64
	gcCycles     uint32  // cycles the runtime started on its own during the round
	gcCPUSeconds float64 // CPU the collector used during the round
	p50, p90     int64   // per-op latency percentiles of this round, ns
}

func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

var gcCPUSample = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func gcCPUNow() float64 {
	metrics.Read(gcCPUSample)
	if gcCPUSample[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return gcCPUSample[0].Value.Float64()
}

// runRound executes one round: an untimed forced collection, then every op
// back to back. The end of one op is the start of the next, so the per-op
// latencies add up to the round's wall time.
func (d *driver) runRound(r roundOps) roundStat {
	writes := make([]*http.Request, len(r.bodies))
	for i, b := range r.bodies {
		writes[i] = mutateRequest(b)
	}
	if cap(d.lat) < len(r.ops) {
		d.lat = make([]int64, len(r.ops))
	}
	lat := d.lat[:len(r.ops)]
	st := roundStat{ops: len(r.ops)}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0 := gcCPUNow()
	cpu0 := cpuNow()
	start := time.Now()
	prev := start
	for i, op := range r.ops {
		if op < 0 {
			d.serve(writes[-(op+1)], true)
		} else {
			d.serve(d.reads[op], d.onRead != nil)
			if d.onRead != nil {
				d.onRead(d.w.body)
			}
		}
		if !d.opOK(op) {
			st.failed++
		}
		now := time.Now()
		lat[i] = int64(now.Sub(prev))
		prev = now
	}
	st.wallNS = int64(prev.Sub(start))
	st.cpuNS = cpuNow() - cpu0
	st.gcCPUSeconds = gcCPUNow() - gc0
	runtime.ReadMemStats(&m1)
	st.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	st.gcCycles = m1.NumGC - m0.NumGC

	slices.Sort(lat)
	st.p50, st.p90 = percentile(lat, 0.50), percentile(lat, 0.90)
	return st
}
