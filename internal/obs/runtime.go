package obs

import (
	"runtime"
	"sync"
	"time"
)

// Runtime metric names, fed by a Runtime collector.
const (
	MetricRuntimeGoroutines  = "dk_runtime_goroutines"
	MetricRuntimeGomaxprocs  = "dk_runtime_gomaxprocs"
	MetricRuntimeHeapAlloc   = "dk_runtime_heap_alloc_bytes"
	MetricRuntimeHeapSys     = "dk_runtime_heap_sys_bytes"
	MetricRuntimeHeapObjects = "dk_runtime_heap_objects"
	MetricRuntimeGCCycles    = "dk_runtime_gc_cycles_total"
	MetricRuntimeGCPause     = "dk_runtime_gc_pause_ns_total"
	MetricRuntimeGCLastPause = "dk_runtime_gc_last_pause_seconds"
	MetricSnapshotAgeSeconds = "dk_snapshot_age_seconds"
	MetricRuntimeCollections = "dk_runtime_collections_total"
)

// Runtime polls Go runtime telemetry — goroutine count, heap and GC state,
// GOMAXPROCS — plus the age of the served index snapshot into a registry, so
// /metrics answers "is the process healthy and is it serving fresh state"
// without pprof. Collect is cheap enough for second-scale polling
// (runtime.ReadMemStats stops the world for microseconds on modern Go).
type Runtime struct {
	goroutines *Gauge
	gomaxprocs *Gauge
	heapAlloc  *Gauge
	heapSys    *Gauge
	heapObjs   *Gauge
	lastPause  *Gauge
	snapAge    *Gauge
	gcCycles   *Counter
	gcPause    *Counter // nanoseconds: counters are integral, so the unit is in the name
	collected  *Counter

	// snapshotAge reports seconds since the index last published a snapshot
	// (an Observer's SnapshotAge, usually); nil leaves the gauge at zero.
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
	return newRuntime(o.Registry, o.SnapshotAge)
}

func newRuntime(reg *Registry, snapshotAge func() float64) *Runtime {
	rt := &Runtime{
		goroutines:  reg.Gauge(MetricRuntimeGoroutines, "Live goroutines."),
		gomaxprocs:  reg.Gauge(MetricRuntimeGomaxprocs, "GOMAXPROCS: OS threads executing Go code simultaneously."),
		heapAlloc:   reg.Gauge(MetricRuntimeHeapAlloc, "Bytes of allocated heap objects."),
		heapSys:     reg.Gauge(MetricRuntimeHeapSys, "Bytes of heap memory obtained from the OS."),
		heapObjs:    reg.Gauge(MetricRuntimeHeapObjects, "Live heap objects."),
		lastPause:   reg.Gauge(MetricRuntimeGCLastPause, "Most recent GC stop-the-world pause in seconds."),
		snapAge:     reg.Gauge(MetricSnapshotAgeSeconds, "Seconds since the served index snapshot was published."),
		gcCycles:    reg.Counter(MetricRuntimeGCCycles, "Completed GC cycles."),
		gcPause:     reg.Counter(MetricRuntimeGCPause, "Cumulative GC stop-the-world pause, nanoseconds."),
		collected:   reg.Counter(MetricRuntimeCollections, "Runtime telemetry polls."),
		snapshotAge: snapshotAge,
	}
	return rt
}

// Collect takes one telemetry sample. Safe for concurrent use (the GC delta
// bookkeeping is serialized); the registry handles are lock-free.
func (rt *Runtime) Collect() {
	if rt == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rt.goroutines.Set(float64(runtime.NumGoroutine()))
	rt.gomaxprocs.Set(float64(runtime.GOMAXPROCS(0)))
	rt.heapAlloc.Set(float64(ms.HeapAlloc))
	rt.heapSys.Set(float64(ms.HeapSys))
	rt.heapObjs.Set(float64(ms.HeapObjects))
	if ms.NumGC > 0 {
		rt.lastPause.Set(float64(ms.PauseNs[(ms.NumGC+255)%256]) / 1e9)
	}
	rt.mu.Lock()
	if d := ms.NumGC - rt.lastNumGC; d > 0 {
		rt.gcCycles.Add(uint64(d))
		rt.lastNumGC = ms.NumGC
	}
	if d := ms.PauseTotalNs - rt.lastPauseNs; d > 0 {
		rt.gcPause.Add(d)
		rt.lastPauseNs = ms.PauseTotalNs
	}
	rt.mu.Unlock()
	if rt.snapshotAge != nil {
		rt.snapAge.Set(rt.snapshotAge())
	}
	rt.collected.Inc()
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
