package obs

import (
	"runtime"
	"sync"
	"time"
)

// Runtime polls Go runtime telemetry — goroutine count, heap and GC state,
// GOMAXPROCS — plus the age of the served index snapshot into a registry, so
// /metrics answers "is the process healthy and is it serving fresh state"
// without pprof. Collect is cheap enough for second-scale polling
// (runtime.ReadMemStats stops the world for microseconds on modern Go).
type Runtime struct {
	// fixed holds the runtime rows' series.
	fixed handles

	// snapshotAge reports seconds since the index last published a snapshot:
	// the observer's SnapshotAge.
	snapshotAge func() float64

	mu          sync.Mutex
	lastNumGC   uint32
	lastPauseNs uint64
}

// NewRuntime registers the runtime telemetry series on the observer's
// registry and returns the collector. The snapshot-age gauge follows the
// observer's generation gauge: it reports how long the currently served
// snapshot has been live, so a stuck writer shows up as a climbing age under
// mutation traffic.
func NewRuntime(o *Observer) *Runtime {
	rows := table[RuntimeGoroutines.id:] // the runtime rows close the table
	return &Runtime{fixed: o.Registry.register(rows), snapshotAge: o.SnapshotAge}
}

// Collect takes one telemetry sample. Safe for concurrent use (the GC delta
// bookkeeping is serialized); the registry handles are lock-free.
func (rt *Runtime) Collect() {
	if rt == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h := rt.fixed
	h.of(RuntimeGoroutines).g.Set(float64(runtime.NumGoroutine()))
	h.of(RuntimeGomaxprocs).g.Set(float64(runtime.GOMAXPROCS(0)))
	h.of(RuntimeHeapAlloc).g.Set(float64(ms.HeapAlloc))
	h.of(RuntimeHeapSys).g.Set(float64(ms.HeapSys))
	h.of(RuntimeHeapObjects).g.Set(float64(ms.HeapObjects))
	if ms.NumGC > 0 {
		h.of(RuntimeGCLastPause).g.Set(float64(ms.PauseNs[(ms.NumGC+255)%256]) / 1e9)
	}
	rt.mu.Lock()
	if d := ms.NumGC - rt.lastNumGC; d > 0 {
		h.of(RuntimeGCCycles).c.Add(uint64(d))
		rt.lastNumGC = ms.NumGC
	}
	// Nanoseconds: counters are integral, so the unit is in the name.
	if d := ms.PauseTotalNs - rt.lastPauseNs; d > 0 {
		h.of(RuntimeGCPause).c.Add(d)
		rt.lastPauseNs = ms.PauseTotalNs
	}
	rt.mu.Unlock()
	h.of(SnapshotAgeSeconds).g.Set(rt.snapshotAge())
	h.of(RuntimeCollections).c.Inc()
}

// Run polls Collect every interval until stop closes, sampling once
// immediately so the gauges are live before the first tick.
func (rt *Runtime) Run(stop <-chan struct{}, interval time.Duration) {
	if rt == nil || interval <= 0 {
		return
	}
	rt.Collect()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			rt.Collect()
		}
	}
}
