package obs

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"dkindex/internal/obs/promtest"
)

// TestRuntimeCollect checks one poll populates the runtime gauges with sane
// values and that the exposition round-trips through the parser.
func TestRuntimeCollect(t *testing.T) {
	o := NewObserver()
	o.SetSnapshotGeneration(3)
	rt := NewRuntime(o)
	rt.Collect()

	var sb strings.Builder
	if err := o.Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	fams, err := promtest.Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, name := range []string{
		RuntimeGoroutines.Name, RuntimeGomaxprocs.Name,
		RuntimeHeapAlloc.Name, RuntimeHeapSys.Name, RuntimeHeapObjects.Name,
	} {
		f := fams[name]
		if f == nil || len(f.Samples) != 1 {
			t.Fatalf("family %s missing", name)
		}
		if f.Samples[0].Value < 1 {
			t.Errorf("%s = %v, want >= 1", name, f.Samples[0].Value)
		}
	}
	if f := fams[RuntimeCollections.Name]; f == nil || f.Samples[0].Value != 1 {
		t.Errorf("collections = %+v, want 1", f)
	}
	age := fams[SnapshotAgeSeconds.Name]
	if age == nil || age.Samples[0].Value < 0 || age.Samples[0].Value > 60 {
		t.Errorf("snapshot age = %+v, want small positive", age)
	}
}

// TestRuntimeGCDeltas checks the cycle/pause counters advance by deltas, not
// absolutes, across repeated polls.
func TestRuntimeGCDeltas(t *testing.T) {
	rt := NewRuntime(NewObserver())
	rt.Collect()
	cycles, pause := rt.fixed.of(RuntimeGCCycles).c, rt.fixed.of(RuntimeGCPause).c
	c1, p1 := cycles.Value(), pause.Value()
	// Force a GC so the next poll sees a delta.
	runtime.GC()
	rt.Collect()
	c2, p2 := cycles.Value(), pause.Value()
	if c2 <= c1 {
		t.Fatalf("gc cycles did not advance: %d -> %d", c1, c2)
	}
	if p2 < p1 {
		t.Fatalf("gc pause went backwards: %d -> %d", p1, p2)
	}
	// A third poll must add only the delta, never re-add the running totals
	// (allow a couple of natural GC cycles between polls).
	rt.Collect()
	if got := cycles.Value(); got-c2 > 2 {
		t.Fatalf("idle poll re-added totals: %d -> %d", c2, got)
	}
}

// TestRuntimeRun checks the poller samples immediately and stops cleanly.
func TestRuntimeRun(t *testing.T) {
	rt := NewRuntime(NewObserver())
	rt.snapshotAge = func() float64 { return 1.5 }
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		rt.Run(stop, time.Millisecond)
		close(done)
	}()
	deadline := time.After(2 * time.Second)
	for rt.fixed.of(RuntimeCollections).c.Value() < 2 {
		select {
		case <-deadline:
			t.Fatal("poller did not tick")
		case <-time.After(time.Millisecond):
		}
	}
	close(stop)
	select {
	case <-done:
	case <-deadline:
		t.Fatal("poller did not stop")
	}
	if age := rt.fixed.of(SnapshotAgeSeconds).g.Value(); age != 1.5 {
		t.Fatalf("snapshot age gauge = %v, want 1.5", age)
	}
}

// TestObserverSnapshotAge checks the generation-swap timestamping: age resets
// on generation change and keeps climbing while the generation is stable.
func TestObserverSnapshotAge(t *testing.T) {
	o := NewObserver()
	if o.SnapshotAge() != 0 {
		t.Fatal("age before any snapshot should be 0")
	}
	o.SetSnapshotGeneration(1)
	a1 := o.SnapshotAge()
	if a1 < 0 {
		t.Fatalf("age = %v, want >= 0", a1)
	}
	time.Sleep(5 * time.Millisecond)
	if a2 := o.SnapshotAge(); a2 <= a1 {
		t.Fatalf("age did not climb: %v -> %v", a1, a2)
	}
	o.SetSnapshotGeneration(2)
	if a3 := o.SnapshotAge(); a3 > 0.004 {
		t.Fatalf("age after new generation = %v, want reset near 0", a3)
	}
	var nilObs *Observer
	if nilObs.SnapshotAge() != 0 {
		t.Fatal("nil observer age != 0")
	}
}
