package main

import (
	"bufio"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"time"

	"dkindex"
)

// The traced run records spans from the benchmark's own files, around the
// calls into each layer's public functions; nothing inside the program is
// instrumented. The layers it can see from outside are
//
//	server              Server.ServeHTTP, one root span per op
//	dkindex.run         Index.Run, through a wrapping server.Backend
//	dkindex.apply_batch Index.ApplyBatch, through the same wrapper
//	fsx.write, fsx.sync, fsx.syncdir, fsx.rename
//	                    the store's file calls, through StoreOptions.FS
//
// What happens below Run and ApplyBatch (parse, cache, evaluators, clone) is
// measured by calling those packages directly in probes.go.

// span is one timed call: which layer, when, caused by which span, for which
// op. Times are nanoseconds since the tracer started.
type span struct {
	name   int32
	parent int32 // index into spans, -1 for a root
	op     int32
	start  int64
	end    int64
}

// tracer keeps spans in memory until the run ends. Its callers are the one
// driver goroutine and, while that goroutine waits inside ApplyBatch, the
// index's committer goroutine; their calls nest in time, so one stack under
// one mutex gives every span its parent. A nil tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	names []string
	ids   map[string]int32
	spans []span
	stack []int32
	op    int32
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), ids: make(map[string]int32)}
}

// nextOp starts a new op: spans begun from now on carry its number.
func (t *tracer) nextOp() {
	t.mu.Lock()
	t.op++
	t.mu.Unlock()
}

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	id, ok := t.ids[name]
	if !ok {
		id = int32(len(t.names))
		t.names = append(t.names, name)
		t.ids[name] = id
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{name: id, parent: parent, op: t.op})
	t.stack = append(t.stack, i)
	t.spans[i].start = int64(time.Since(t.t0))
	t.mu.Unlock()
	return i
}

// end closes span i, which must be the innermost open one.
func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[i].end = now
	t.stack = t.stack[:len(t.stack)-1]
	t.mu.Unlock()
}

// layerTime sums one layer's spans.
type layerTime struct {
	Count  int
	SelfNS int64 // duration minus the part child spans cover
	WallNS int64 // duration
}

// selfTimes folds spans[from:] by layer name. A span's self time is its
// duration minus its children's; children of one span never overlap here.
func (t *tracer) selfTimes(from int) map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for i := from; i < len(t.spans); i++ {
		if s := t.spans[i]; s.parent >= int32(from) {
			child[s.parent] += s.end - s.start
		}
	}
	out := make(map[string]layerTime)
	for i := from; i < len(t.spans); i++ {
		s := t.spans[i]
		lt := out[t.names[s.name]]
		lt.Count++
		lt.WallNS += s.end - s.start
		lt.SelfNS += s.end - s.start - child[i]
		out[t.names[s.name]] = lt
	}
	return out
}

// rootDurations returns the sorted wall times of the root spans in
// spans[from:], split into ops that wrote (some span below them is an
// ApplyBatch) and ops that only read.
func (t *tracer) rootDurations(from int) (reads, writes []int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	apply, ok := t.ids["dkindex.apply_batch"]
	wrote := make(map[int32]bool)
	for _, s := range t.spans[from:] {
		if ok && s.name == apply {
			wrote[s.op] = true
		}
	}
	for _, s := range t.spans[from:] {
		switch {
		case s.parent >= 0:
		case wrote[s.op]:
			writes = append(writes, s.end-s.start)
		default:
			reads = append(reads, s.end-s.start)
		}
	}
	slices.Sort(reads)
	slices.Sort(writes)
	return reads, writes
}

func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	type line struct {
		ID     int    `json:"id"`
		Name   string `json:"name"`
		Parent int32  `json:"parent"`
		Op     int32  `json:"op"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	for i, s := range t.spans {
		if err := enc.Encode(line{ID: i, Name: t.names[s.name], Parent: s.parent, Op: s.op, Start: s.start, End: s.end}); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedBackend is the server.Backend the traced run serves: the index
// itself, with the two calls the /v1 handlers make into it wrapped in spans.
type tracedBackend struct {
	*dkindex.Index
	tr *tracer
}

func (b tracedBackend) Run(req dkindex.Request) (dkindex.Result, error) {
	s := b.tr.begin("dkindex.run")
	defer b.tr.end(s)
	return b.Index.Run(req)
}

func (b tracedBackend) ApplyBatch(ms []dkindex.Mutation) ([]dkindex.Ack, error) {
	s := b.tr.begin("dkindex.apply_batch")
	defer b.tr.end(s)
	return b.Index.ApplyBatch(ms)
}
