package obs

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestNilTraceAndTracer checks that the whole tracing surface is inert on nil
// receivers — the uninstrumented hot path relies on this.
func TestNilTraceAndTracer(t *testing.T) {
	var tr *Tracer
	if got := tr.Sample("path", "q"); got != nil {
		t.Fatalf("nil tracer sampled %+v", got)
	}
	tr.Finish(nil)
	if tr.Recent(0) != nil {
		t.Fatal("nil tracer not inert")
	}

	var trace *Trace
	if start := trace.StageStart(); !start.IsZero() {
		t.Fatal("nil trace read the clock")
	}
	trace.EndStage("match", time.Time{}) // must not panic
}

func TestTracerSamplingInterval(t *testing.T) {
	tr := NewTracer(4, 8)
	var sampled int
	for i := 0; i < 40; i++ {
		if tt := tr.Sample("rpe", "a//b"); tt != nil {
			sampled++
			tt.IndexNodesVisited = i
			tr.Finish(tt)
		}
	}
	if sampled != 10 {
		t.Fatalf("sampled = %d, want 10", sampled)
	}
	recent := tr.Recent(0)
	if len(recent) != 8 {
		t.Fatalf("recent = %d traces, want 8", len(recent))
	}
	// Oldest-first: the 3rd..10th sampled iterations (i = 11, 15, ..., 39).
	if recent[0].IndexNodesVisited != 11 || recent[7].IndexNodesVisited != 39 {
		t.Fatalf("recent order wrong: first=%d last=%d", recent[0].IndexNodesVisited, recent[7].IndexNodesVisited)
	}
	if recent[7].Total <= 0 {
		t.Fatal("Finish did not stamp Total")
	}
}

func TestTracerDisabled(t *testing.T) {
	tr := NewTracer(0, 4)
	for i := 0; i < 10; i++ {
		if tr.Sample("twig", "q") != nil {
			t.Fatal("disabled tracer sampled")
		}
	}
}

func TestTraceSpans(t *testing.T) {
	tr := NewTracer(1, 4)
	tt := tr.Sample("path", "a/b")
	if tt == nil {
		t.Fatal("interval-1 tracer did not sample")
	}
	s1 := tt.StageStart()
	tt.EndStage("match", s1)
	s2 := tt.StageStart()
	tt.EndStage("validate", s2)
	tr.Finish(tt)
	if len(tt.Spans) != 2 || tt.Spans[0].Name != "match" || tt.Spans[1].Name != "validate" {
		t.Fatalf("spans = %+v", tt.Spans)
	}
	if tt.Spans[1].Offset < tt.Spans[0].Offset {
		t.Fatal("span offsets not monotone")
	}
}

func TestTraceOrigin(t *testing.T) {
	tr := NewTracer(1, 4)
	tt := tr.Sample("path", "a/b")
	tt.SetOrigin("req-123")
	tr.Finish(tt)
	recent := tr.Recent(0)
	if len(recent) != 1 || recent[0].Origin != "req-123" {
		t.Fatalf("recent = %+v, want one trace with origin req-123", recent)
	}
	var nilTrace *Trace
	nilTrace.SetOrigin("x") // must not panic
}

func TestTracerRecentPagination(t *testing.T) {
	tr := NewTracer(1, 8)
	for i := 0; i < 12; i++ {
		tt := tr.Sample("path", "q")
		tt.IndexNodesVisited = i
		tr.Finish(tt)
	}
	all := tr.Recent(0)
	if len(all) != 8 || all[0].IndexNodesVisited != 4 || all[7].IndexNodesVisited != 11 {
		t.Fatalf("Recent(0) = %d traces first=%d last=%d, want 8 traces 4..11",
			len(all), all[0].IndexNodesVisited, all[7].IndexNodesVisited)
	}
	// n selects the newest n, still oldest-first within the page.
	page := tr.Recent(3)
	if len(page) != 3 || page[0].IndexNodesVisited != 9 || page[2].IndexNodesVisited != 11 {
		t.Fatalf("Recent(3) = %+v, want traces 9,10,11", page)
	}
	if got := tr.Recent(100); len(got) != 8 {
		t.Fatalf("Recent(100) = %d traces, want all 8", len(got))
	}
}

// TestTracerConcurrent samples, finishes and paginates from many goroutines;
// run with -race. Afterwards the cadence must be exact (atomic counter), the
// buffer bounded, and every retained trace complete.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(2, 16)
	var wg sync.WaitGroup
	var sampled atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if tt := tr.Sample("path", "q"); tt != nil {
					sampled.Add(1)
					s := tt.StageStart()
					tt.EndStage("match", s)
					tt.SetOrigin("w")
					tr.Finish(tt)
				}
				if got := tr.Recent(4); len(got) > 4 {
					t.Errorf("Recent(4) returned %d traces", len(got))
				}
			}
		}()
	}
	wg.Wait()
	if sampled.Load() != 8*200/2 {
		t.Fatalf("sampled = %d, want %d", sampled.Load(), 8*200/2)
	}
	recent := tr.Recent(0)
	if len(recent) != 16 {
		t.Fatalf("buffer retained %d traces, want 16", len(recent))
	}
	for _, tt := range recent {
		if tt.Total <= 0 || len(tt.Spans) != 1 || tt.Origin != "w" {
			t.Fatalf("incomplete retained trace: %+v", tt)
		}
	}
}
