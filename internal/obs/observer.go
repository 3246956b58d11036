package obs

import (
	"slices"
	"sync/atomic"
	"time"
)

// BuildSample carries one build job's cost counters (core.BuildStats, kept
// decoupled so obs depends on no other package).
type BuildSample struct {
	Rounds     int
	Splits     int
	PeakBlocks int
	CSRBuild   time.Duration
	Total      time.Duration
}

// CostSample carries the paper's per-query cost counters into histograms.
type CostSample struct {
	IndexNodesVisited  int
	DataNodesValidated int
	Validations        int
}

// Observer bundles the three observability surfaces — metrics registry,
// lifecycle event stream and query tracer — behind nil-safe methods: a nil
// *Observer accepts every call and does nothing, so instrumented code needs
// no branches beyond the receiver check the calls themselves perform. Its
// Counter and Gauge hand out nil handles, which ignore writes.
type Observer struct {
	Registry *Registry
	Events   *Stream
	Tracer   *Tracer
	// Slow retains the slowest served requests (top-N by latency); the HTTP
	// server feeds it and exposes it at /v1/slow.
	Slow *SlowLog

	// fixed holds the series of the observer's rows, registered up front;
	// a per-kind row keeps one series per query kind, in queryKinds order.
	fixed handles

	// swap tracks when the published snapshot generation last changed, so
	// the runtime collector can report snapshot age: a serving process whose
	// writers stalled shows a climbing age under mutation traffic.
	swap struct {
		gen atomic.Uint64
		at  atomic.Int64 // unix nanos of the last generation change; 0 = never
	}
}

// NewObserver builds an observer with a fresh registry, a 256-event stream,
// a tracer sampling 1 query in 64 (keep 32) and a 64-entry slow log. Replace
// Events or Tracer before attaching to resize or retune; mutate fields only
// before first use.
func NewObserver() *Observer {
	reg := NewRegistry()
	return &Observer{
		Registry: reg,
		Events:   NewStream(256),
		Tracer:   NewTracer(64, 32),
		Slow:     NewSlowLog(64),
		fixed:    reg.register(table[:HTTPRequests.id]), // the rows before the server's
	}
}

// Counter returns the observer's handle on a label-free counter row, and nil
// — a handle that ignores writes — for a nil observer.
func (o *Observer) Counter(f *Family) *Counter {
	if o == nil {
		return nil
	}
	return o.fixed.of(f).c
}

// Gauge returns the observer's handle on a label-free gauge row, nil for a
// nil observer.
func (o *Observer) Gauge(f *Family) *Gauge {
	if o == nil {
		return nil
	}
	return o.fixed.of(f).g
}

// ObserveBatchCommit records one group commit: how many mutations it applied,
// how many it rejected, and its wall time (apply + WAL fsync + swap).
func (o *Observer) ObserveBatchCommit(applied, rejected int, d time.Duration) {
	if o == nil {
		return
	}
	o.fixed.of(BatchCommits).c.Inc()
	if applied > 0 {
		o.fixed.of(BatchMutations).c.Add(uint64(applied))
		o.fixed.of(BatchSize).h.Observe(float64(applied))
	}
	if rejected > 0 {
		o.fixed.of(BatchRejected).c.Add(uint64(rejected))
	}
	o.fixed.of(BatchFlushSeconds).h.Observe(d.Seconds())
}

// ObserveBatchStages records where one group commit's wall time went, so the
// flush histogram can be attributed stage by stage.
func (o *Observer) ObserveBatchStages(clone, apply, wal, publish time.Duration) {
	if o == nil {
		return
	}
	for i, d := range [...]time.Duration{clone, apply, wal, publish} {
		o.fixed[BatchStageSeconds.id][i].h.Observe(d.Seconds())
	}
}

// SetReplProgress refreshes the replication gauges: the replica's applied
// global sequence, the primary head it last saw, and the lag between them.
func (o *Observer) SetReplProgress(applied, primary uint64) {
	if o == nil {
		return
	}
	o.fixed.of(ReplAppliedSeq).g.Set(float64(applied))
	o.fixed.of(ReplPrimarySeq).g.Set(float64(primary))
	lag := uint64(0)
	if primary > applied {
		lag = primary - applied
	}
	o.fixed.of(ReplLagSeq).g.Set(float64(lag))
}

// ObserveBuild records one completed construction job under its trigger
// ("initial", "optimize", "retune", "compact", ...).
func (o *Observer) ObserveBuild(trigger string, s BuildSample) {
	if o == nil {
		return
	}
	Builds.Counter(o.Registry, trigger).Inc()
	o.fixed.of(BuildSeconds).h.Observe(s.Total.Seconds())
	o.fixed.of(BuildCSRSeconds).h.Observe(s.CSRBuild.Seconds())
	o.fixed.of(BuildRounds).h.Observe(float64(s.Rounds))
	if s.Splits > 0 {
		o.fixed.of(BuildSplits).c.Add(uint64(s.Splits))
	}
	o.fixed.of(BuildPeakBlocks).g.Set(float64(s.PeakBlocks))
}

// ObserveQuery records one evaluated query into the per-kind histograms.
func (o *Observer) ObserveQuery(kind string, d time.Duration, c CostSample, results int) {
	if o == nil {
		return
	}
	k := slices.Index(queryKinds, kind)
	if k < 0 {
		return // not a kind Run serves; Run rejects those before observing
	}
	o.fixed[Queries.id][k].c.Inc()
	o.fixed[QuerySeconds.id][k].h.Observe(d.Seconds())
	o.fixed[QueryIndexVisited.id][k].h.Observe(float64(c.IndexNodesVisited))
	o.fixed[QueryDataValidated.id][k].h.Observe(float64(c.DataNodesValidated))
	o.fixed[QueryValidations.id][k].h.Observe(float64(c.Validations))
	o.fixed[QueryResults.id][k].h.Observe(float64(results))
}

// CountKind counts one query of a kind in a per-kind counter row:
// QueryErrors for a query rejected before evaluation, CacheHits for one
// answered from the result cache, CacheMisses for a cacheable one it could
// not serve.
func (o *Observer) CountKind(f *Family, kind string) {
	if o == nil {
		return
	}
	if k := slices.Index(queryKinds, kind); k >= 0 {
		o.fixed[f.id][k].c.Inc()
	}
}

// SetSnapshotGeneration refreshes the published-snapshot generation gauge
// and, when the generation changed, stamps the swap time behind SnapshotAge.
func (o *Observer) SetSnapshotGeneration(gen uint64) {
	if o == nil {
		return
	}
	o.fixed.of(SnapshotGeneration).g.Set(float64(gen))
	if o.swap.gen.Swap(gen) != gen || o.swap.at.Load() == 0 {
		o.swap.at.Store(time.Now().UnixNano())
	}
}

// SnapshotAge returns seconds since the served snapshot generation last
// changed (zero before the first SetSnapshotGeneration). Nil-safe.
func (o *Observer) SnapshotAge() float64 {
	if o == nil {
		return 0
	}
	at := o.swap.at.Load()
	if at == 0 {
		return 0
	}
	return time.Since(time.Unix(0, at)).Seconds()
}

// SampleTrace begins a sampled trace (nil when not sampled) and counts it.
func (o *Observer) SampleTrace(kind, query string) *Trace {
	if o == nil {
		return nil
	}
	t := o.Tracer.Sample(kind, query)
	if t != nil {
		o.fixed.of(TracesSampled).c.Inc()
	}
	return t
}

// RecordEvent publishes a lifecycle event and bumps its per-type counter.
func (o *Observer) RecordEvent(e Event) {
	if o == nil {
		return
	}
	LifecycleEvents.Counter(o.Registry, string(e.Type)).Inc()
	if o.Events != nil {
		o.Events.Publish(e)
	}
}

// MemorySample carries the succinct-set footprint of an index's extents
// (kept decoupled from the index package, like BuildSample): resident bytes
// by encoding plus the bytes equivalent uncompressed slices would occupy.
type MemorySample struct {
	ExtentSparseBytes int
	ExtentDenseBytes  int
	ExtentRawBytes    int
}

// SetExtentMemory refreshes the succinct-set memory gauges; call after any
// mutation, alongside the index size gauges.
func (o *Observer) SetExtentMemory(m MemorySample) {
	if o == nil {
		return
	}
	// Series run sparse before dense.
	bytes, raw, ratios := o.fixed[SetBytes.id], o.fixed[SetRawBytes.id], o.fixed[SetCompression.id]
	bytes[0].g.Set(float64(m.ExtentSparseBytes))
	bytes[1].g.Set(float64(m.ExtentDenseBytes))
	raw[0].g.Set(float64(m.ExtentRawBytes))
	ratios[0].g.Set(ratio(m.ExtentRawBytes, m.ExtentSparseBytes+m.ExtentDenseBytes))
}

func ratio(raw, resident int) float64 {
	if resident <= 0 {
		return 0
	}
	return float64(raw) / float64(resident)
}
