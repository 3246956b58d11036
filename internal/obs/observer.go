package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Metric names exposed by an Observer, collected here so servers, dashboards
// and tests share one vocabulary.
const (
	MetricQueries            = "dk_queries_total"
	MetricQueryErrors        = "dk_query_errors_total"
	MetricQuerySeconds       = "dk_query_duration_seconds"
	MetricQueryIndexVisited  = "dk_query_index_nodes_visited"
	MetricQueryDataValidated = "dk_query_data_nodes_validated"
	MetricQueryValidations   = "dk_query_validations"
	MetricQueryResults       = "dk_query_results"
	MetricLifecycleEvents    = "dk_lifecycle_events_total"
	MetricIndexNodes         = "dk_index_nodes"
	MetricIndexEdges         = "dk_index_edges"
	MetricDataNodes          = "dk_data_nodes"
	MetricDataEdges          = "dk_data_edges"
	MetricIndexMaxK          = "dk_index_max_k"
	MetricDanglingRefs       = "dk_load_dangling_refs_total"
	MetricTracesSampled      = "dk_traces_sampled_total"
	MetricHTTPRequests       = "dk_http_requests_total"
	MetricCacheHits          = "dk_query_cache_hits_total"
	MetricCacheMisses        = "dk_query_cache_misses_total"
	MetricCacheEntries       = "dk_query_cache_entries"
	MetricSnapshotGeneration = "dk_snapshot_generation"

	// Succinct-set memory gauges, labeled kind=extent|posting. Bytes are
	// split by physical encoding (encoding=sparse|dense); raw bytes are what
	// plain node slices would occupy; the compression ratio is raw/resident.
	MetricSetBytes       = "dk_set_bytes"
	MetricSetRawBytes    = "dk_set_raw_bytes"
	MetricSetCompression = "dk_set_compression_ratio"

	// Durability metrics, fed by the dkindex Store.
	MetricWALRecords            = "dk_wal_records_total"
	MetricWALBytes              = "dk_wal_bytes_total"
	MetricWALGroups             = "dk_wal_groups_total"
	MetricCheckpoints           = "dk_checkpoints_total"
	MetricCheckpointBytes       = "dk_checkpoint_bytes_total"
	MetricRecoveryReplayed      = "dk_recovery_replayed_records_total"
	MetricRecoveryTruncatedTail = "dk_recovery_truncated_tail_total"

	// HTTP resilience metrics, fed by the server middleware.
	MetricHTTPShed   = "dk_http_shed_total"
	MetricHTTPPanics = "dk_http_panics_total"

	// HTTP RED metrics, fed by the server middleware: per-route request
	// latency, requests currently being served, and error responses by
	// status class (label cardinality stays bounded by the server's fixed
	// route table).
	MetricHTTPDuration = "dk_http_request_duration_seconds"
	MetricHTTPInFlight = "dk_http_inflight_requests"
	MetricHTTPErrors   = "dk_http_errors_total"

	// Write-pipeline metrics, fed by the facade's group-commit path: commits
	// (one WAL fsync + one snapshot swap each), the mutations they carried,
	// mutations rejected before or during application, the batch-size and
	// flush-latency distributions, the flush latency split by stage (clone,
	// apply, wal, publish), and the sequence/watermark gauges (last
	// assigned mutation sequence number vs the acknowledged-durable
	// watermark — a widening gap means the committer is falling behind).
	MetricBatchCommits      = "dk_batch_commits_total"
	MetricBatchMutations    = "dk_batch_mutations_total"
	MetricBatchRejected     = "dk_batch_mutations_rejected_total"
	MetricBatchSize         = "dk_batch_size"
	MetricBatchFlushSeconds = "dk_batch_flush_duration_seconds"
	MetricBatchStageSeconds = "dk_batch_stage_duration_seconds"
	MetricMutationSeq       = "dk_mutation_seq"
	MetricMutationWatermark = "dk_mutation_watermark"

	// Replication metrics, fed by a replica tailing a primary's WAL feed:
	// the applied and primary-head global sequence gauges, the lag between
	// them, retries (failed feed requests) and reconnects (stream instance
	// changes forcing a re-bootstrap), and the staleness flag (1 while lag
	// exceeds the configured bound; the replica keeps serving).
	MetricReplAppliedSeq = "dk_repl_applied_seq"
	MetricReplPrimarySeq = "dk_repl_primary_seq"
	MetricReplLagSeq     = "dk_repl_lag_seq"
	MetricReplRetries    = "dk_repl_retries_total"
	MetricReplReconnects = "dk_repl_reconnects_total"
	MetricReplStale      = "dk_repl_stale"

	// Construction metrics, fed by every index (re)build: initial
	// construction, optimize, retune, compaction, bulk edge replacement.
	MetricBuilds          = "dk_builds_total"
	MetricBuildSeconds    = "dk_build_duration_seconds"
	MetricBuildCSRSeconds = "dk_build_csr_duration_seconds"
	MetricBuildRounds     = "dk_build_rounds"
	MetricBuildSplits     = "dk_build_splits_total"
	MetricBuildPeakBlocks = "dk_build_peak_blocks"
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

// queryMetrics is the per-kind bundle ObserveQuery updates; pre-registered so
// the query hot path performs only atomic operations.
type queryMetrics struct {
	total       *Counter
	errors      *Counter
	cacheHits   *Counter
	cacheMisses *Counter
	seconds     *Histogram
	visited     *Histogram
	validated   *Histogram
	fanout      *Histogram
	results     *Histogram
}

// Observer bundles the three observability surfaces — metrics registry,
// lifecycle event stream and query tracer — behind nil-safe methods: a nil
// *Observer accepts every call and does nothing, so instrumented code needs
// no branches beyond the receiver check the calls themselves perform.
type Observer struct {
	Registry *Registry
	Events   *Stream
	Tracer   *Tracer
	// Slow retains the slowest served requests (top-N by latency); the HTTP
	// server feeds it and exposes it at /v1/slow.
	Slow *SlowLog

	// queryKinds holds the per-kind metric bundles ("path", "rpe", "twig"
	// pre-registered; others added copy-on-write), swapped atomically so
	// ObserveQuery stays lock-free.
	queryKinds atomic.Pointer[map[string]*queryMetrics]
	mu         sync.Mutex
	evCounters map[EventType]*Counter
	gauges     struct {
		indexNodes, indexEdges, dataNodes, dataEdges, maxK *Gauge
		generation, cacheEntries                           *Gauge
		extSparse, extDense, extRaw, extRatio              *Gauge
		postSparse, postDense, postRaw, postRatio          *Gauge
	}
	dangling *Counter
	sampled  *Counter
	build    struct {
		triggers   map[string]*Counter // guarded by mu; builds are rare
		seconds    *Histogram
		csrSeconds *Histogram
		rounds     *Histogram
		splits     *Counter
		peakBlocks *Gauge
	}
	durable struct {
		walRecords, walBytes, walGroups     *Counter
		checkpoints, checkpointBytes        *Counter
		recoveryReplayed, recoveryTruncated *Counter
		httpShed, httpPanics                *Counter
	}
	batch struct {
		commits, mutations, rejected *Counter
		size                         *Histogram
		seconds                      *Histogram
		stages                       [len(batchStages)]*Histogram
		seq, watermark               *Gauge
	}
	repl struct {
		applied, primary, lag, stale *Gauge
		retries, reconnects          *Counter
	}

	// swap tracks when the published snapshot generation last changed, so
	// the runtime collector can report snapshot age: a serving process whose
	// writers stalled shows a climbing age under mutation traffic.
	swap struct {
		gen atomic.Uint64
		at  atomic.Int64 // unix nanos of the last generation change; 0 = never
	}
}

// NewObserver builds an observer with a fresh registry, a 256-event stream
// and a tracer sampling 1 query in 64 (keep 32). Replace Events or Tracer
// before attaching to resize or retune; the struct is wired at construction,
// so mutate fields only before first use.
func NewObserver() *Observer {
	return NewObserverWith(NewRegistry(), NewStream(256), NewTracer(64, 32))
}

// NewObserverWith builds an observer over the given parts (any may be shared
// with other observers; events and tracer may be nil to disable them).
func NewObserverWith(reg *Registry, events *Stream, tracer *Tracer) *Observer {
	o := &Observer{
		Registry:   reg,
		Events:     events,
		Tracer:     tracer,
		Slow:       NewSlowLog(DefaultSlowLogSize),
		evCounters: make(map[EventType]*Counter),
	}
	kinds := make(map[string]*queryMetrics, 3)
	for _, kind := range []string{"path", "rpe", "twig"} {
		kinds[kind] = newQueryMetrics(reg, kind)
	}
	o.queryKinds.Store(&kinds)
	o.gauges.dataNodes = reg.Gauge(MetricDataNodes, "Data graph node count.")
	o.gauges.dataEdges = reg.Gauge(MetricDataEdges, "Data graph edge count.")
	o.gauges.indexNodes = reg.Gauge(MetricIndexNodes, "Index graph node count (the paper's index size).")
	o.gauges.indexEdges = reg.Gauge(MetricIndexEdges, "Index graph edge count.")
	o.gauges.maxK = reg.Gauge(MetricIndexMaxK, "Largest local similarity of any index node.")
	o.gauges.generation = reg.Gauge(MetricSnapshotGeneration, "Generation of the currently published index snapshot.")
	o.gauges.cacheEntries = reg.Gauge(MetricCacheEntries, "Result cache entries for the current generation.")
	setBytesHelp := "Resident bytes of succinct node sets, by kind and physical encoding."
	o.gauges.extSparse = reg.Gauge(MetricSetBytes, setBytesHelp, L("kind", "extent"), L("encoding", "sparse"))
	o.gauges.extDense = reg.Gauge(MetricSetBytes, setBytesHelp, L("kind", "extent"), L("encoding", "dense"))
	o.gauges.postSparse = reg.Gauge(MetricSetBytes, setBytesHelp, L("kind", "posting"), L("encoding", "sparse"))
	o.gauges.postDense = reg.Gauge(MetricSetBytes, setBytesHelp, L("kind", "posting"), L("encoding", "dense"))
	setRawHelp := "Bytes uncompressed node slices would occupy, by kind."
	o.gauges.extRaw = reg.Gauge(MetricSetRawBytes, setRawHelp, L("kind", "extent"))
	o.gauges.postRaw = reg.Gauge(MetricSetRawBytes, setRawHelp, L("kind", "posting"))
	setRatioHelp := "Raw-to-resident compression ratio of succinct node sets, by kind."
	o.gauges.extRatio = reg.Gauge(MetricSetCompression, setRatioHelp, L("kind", "extent"))
	o.gauges.postRatio = reg.Gauge(MetricSetCompression, setRatioHelp, L("kind", "posting"))
	o.dangling = reg.Counter(MetricDanglingRefs, "IDREF attributes that resolved to no element at load time.")
	o.sampled = reg.Counter(MetricTracesSampled, "Query traces sampled.")
	o.durable.walRecords = reg.Counter(MetricWALRecords, "Write-ahead-log records appended and fsynced.")
	o.durable.walBytes = reg.Counter(MetricWALBytes, "Bytes appended to the write-ahead log.")
	o.durable.walGroups = reg.Counter(MetricWALGroups, "Group frames appended to the write-ahead log (one fsync each).")
	o.durable.checkpoints = reg.Counter(MetricCheckpoints, "Checkpoints written successfully.")
	o.durable.checkpointBytes = reg.Counter(MetricCheckpointBytes, "Bytes written by successful checkpoints.")
	o.durable.recoveryReplayed = reg.Counter(MetricRecoveryReplayed, "WAL records replayed during startup recovery.")
	o.durable.recoveryTruncated = reg.Counter(MetricRecoveryTruncatedTail, "Recoveries that truncated a torn WAL tail.")
	o.durable.httpShed = reg.Counter(MetricHTTPShed, "HTTP requests shed with 503 because the in-flight limit was reached.")
	o.durable.httpPanics = reg.Counter(MetricHTTPPanics, "HTTP handler panics recovered by the middleware.")
	o.build.triggers = make(map[string]*Counter)
	o.build.seconds = reg.Histogram(MetricBuildSeconds, "Index construction wall time in seconds.", ExpBuckets(1e-4, 2.5, 14))
	o.build.csrSeconds = reg.Histogram(MetricBuildCSRSeconds, "Time spent snapshotting adjacency into CSR form per build.", ExpBuckets(1e-5, 2.5, 14))
	o.build.rounds = reg.Histogram(MetricBuildRounds, "Refinement rounds per build (k_max after broadcast).", []float64{0, 1, 2, 3, 4, 6, 8, 12, 16, 24})
	o.build.splits = reg.Counter(MetricBuildSplits, "Index nodes created by refinement across all builds.")
	o.build.peakBlocks = reg.Gauge(MetricBuildPeakBlocks, "Partition blocks at the end of the most recent build's refinement.")
	o.batch.commits = reg.Counter(MetricBatchCommits, "Group commits: one WAL fsync and one snapshot swap each.")
	o.batch.mutations = reg.Counter(MetricBatchMutations, "Mutations applied through group commits.")
	o.batch.rejected = reg.Counter(MetricBatchRejected, "Mutations rejected by validation or a failed group append.")
	o.batch.size = reg.Histogram(MetricBatchSize, "Mutations applied per group commit.", []float64{1, 2, 4, 8, 16, 32, 64, 128, 256})
	o.batch.seconds = reg.Histogram(MetricBatchFlushSeconds, "Group-commit wall time in seconds (apply + WAL fsync + swap).", ExpBuckets(1e-5, 2.5, 14))
	for i, stage := range batchStages {
		o.batch.stages[i] = reg.Histogram(MetricBatchStageSeconds, "Group-commit wall time in seconds, by stage.", ExpBuckets(1e-6, 2.5, 16), L("stage", stage))
	}
	o.batch.seq = reg.Gauge(MetricMutationSeq, "Last assigned mutation sequence number.")
	o.batch.watermark = reg.Gauge(MetricMutationWatermark, "Acknowledged-durable mutation watermark.")
	o.repl.applied = reg.Gauge(MetricReplAppliedSeq, "Last global WAL sequence the replica applied.")
	o.repl.primary = reg.Gauge(MetricReplPrimarySeq, "Primary head global WAL sequence last reported by the feed.")
	o.repl.lag = reg.Gauge(MetricReplLagSeq, "Replica lag: primary head minus applied global sequence.")
	o.repl.stale = reg.Gauge(MetricReplStale, "1 while replica lag exceeds the configured bound (still serving).")
	o.repl.retries = reg.Counter(MetricReplRetries, "Failed replication feed requests that were retried with backoff.")
	o.repl.reconnects = reg.Counter(MetricReplReconnects, "Replication stream restarts: instance changes or lost positions forcing a re-bootstrap.")
	return o
}

// ObserveBatchCommit records one group commit: how many mutations it applied,
// how many it rejected, and its wall time (apply + WAL fsync + swap).
func (o *Observer) ObserveBatchCommit(applied, rejected int, d time.Duration) {
	if o == nil {
		return
	}
	o.batch.commits.Inc()
	if applied > 0 {
		o.batch.mutations.Add(uint64(applied))
		o.batch.size.Observe(float64(applied))
	}
	if rejected > 0 {
		o.batch.rejected.Add(uint64(rejected))
	}
	o.batch.seconds.Observe(d.Seconds())
}

// batchStages names the stages of a group commit in the order they run: the
// copy-on-write clone of the published snapshot, the application of every
// member, the WAL append + fsync, and the snapshot swap.
var batchStages = [...]string{"clone", "apply", "wal", "publish"}

// ObserveBatchStages records where one group commit's wall time went, so the
// flush histogram can be attributed stage by stage.
func (o *Observer) ObserveBatchStages(clone, apply, wal, publish time.Duration) {
	if o == nil {
		return
	}
	for i, d := range [...]time.Duration{clone, apply, wal, publish} {
		o.batch.stages[i].Observe(d.Seconds())
	}
}

// SetMutationProgress refreshes the write-pipeline gauges: the last assigned
// mutation sequence number and the acknowledged-durable watermark.
func (o *Observer) SetMutationProgress(seq, watermark uint64) {
	if o == nil {
		return
	}
	o.batch.seq.Set(float64(seq))
	o.batch.watermark.Set(float64(watermark))
}

// SetReplProgress refreshes the replication gauges: the replica's applied
// global sequence, the primary head it last saw, and the lag between them.
func (o *Observer) SetReplProgress(applied, primary uint64) {
	if o == nil {
		return
	}
	o.repl.applied.Set(float64(applied))
	o.repl.primary.Set(float64(primary))
	lag := uint64(0)
	if primary > applied {
		lag = primary - applied
	}
	o.repl.lag.Set(float64(lag))
}

// SetReplStale flips the staleness gauge: 1 while the replica's lag exceeds
// its configured bound, 0 otherwise.
func (o *Observer) SetReplStale(stale bool) {
	if o == nil {
		return
	}
	if stale {
		o.repl.stale.Set(1)
	} else {
		o.repl.stale.Set(0)
	}
}

// ObserveReplRetry counts one failed feed request about to be retried.
func (o *Observer) ObserveReplRetry() {
	if o == nil {
		return
	}
	o.repl.retries.Inc()
}

// ObserveReplReconnect counts one stream restart (instance change or lost
// position) that forces the replica to re-bootstrap from a checkpoint.
func (o *Observer) ObserveReplReconnect() {
	if o == nil {
		return
	}
	o.repl.reconnects.Inc()
}

// ObserveBuild records one completed construction job under its trigger
// ("initial", "optimize", "retune", "compact", ...).
func (o *Observer) ObserveBuild(trigger string, s BuildSample) {
	if o == nil {
		return
	}
	o.mu.Lock()
	c, ok := o.build.triggers[trigger]
	if !ok {
		c = o.Registry.Counter(MetricBuilds, "Index constructions, by trigger.", L("trigger", trigger))
		o.build.triggers[trigger] = c
	}
	o.mu.Unlock()
	c.Inc()
	o.build.seconds.Observe(s.Total.Seconds())
	o.build.csrSeconds.Observe(s.CSRBuild.Seconds())
	o.build.rounds.Observe(float64(s.Rounds))
	if s.Splits > 0 {
		o.build.splits.Add(uint64(s.Splits))
	}
	o.build.peakBlocks.Set(float64(s.PeakBlocks))
}

// ObserveWALAppend counts one durable write-ahead-log append of n bytes.
func (o *Observer) ObserveWALAppend(n int) {
	if o == nil {
		return
	}
	o.durable.walRecords.Inc()
	if n > 0 {
		o.durable.walBytes.Add(uint64(n))
	}
}

// ObserveWALGroup counts one durable group append carrying records records in
// an n-byte frame (a single fsync).
func (o *Observer) ObserveWALGroup(records, n int) {
	if o == nil {
		return
	}
	o.durable.walGroups.Inc()
	if records > 0 {
		o.durable.walRecords.Add(uint64(records))
	}
	if n > 0 {
		o.durable.walBytes.Add(uint64(n))
	}
}

// ObserveCheckpoint counts one successful checkpoint of n bytes.
func (o *Observer) ObserveCheckpoint(n int64) {
	if o == nil {
		return
	}
	o.durable.checkpoints.Inc()
	if n > 0 {
		o.durable.checkpointBytes.Add(uint64(n))
	}
}

// ObserveRecovery records a completed startup recovery: how many WAL records
// were replayed and whether a torn tail had to be truncated.
func (o *Observer) ObserveRecovery(replayed int, truncatedTail bool) {
	if o == nil {
		return
	}
	if replayed > 0 {
		o.durable.recoveryReplayed.Add(uint64(replayed))
	}
	if truncatedTail {
		o.durable.recoveryTruncated.Inc()
	}
}

// ObserveHTTPShed counts a request rejected by the in-flight limiter.
func (o *Observer) ObserveHTTPShed() {
	if o == nil {
		return
	}
	o.durable.httpShed.Inc()
}

// ObserveHTTPPanic counts a handler panic recovered by the middleware.
func (o *Observer) ObserveHTTPPanic() {
	if o == nil {
		return
	}
	o.durable.httpPanics.Inc()
}

// ObserveQuery records one evaluated query into the per-kind histograms.
func (o *Observer) ObserveQuery(kind string, d time.Duration, c CostSample, results int) {
	if o == nil {
		return
	}
	m := o.kind(kind)
	m.total.Inc()
	m.seconds.Observe(d.Seconds())
	m.visited.Observe(float64(c.IndexNodesVisited))
	m.validated.Observe(float64(c.DataNodesValidated))
	m.fanout.Observe(float64(c.Validations))
	m.results.Observe(float64(results))
}

// ObserveQueryError counts a query rejected before evaluation.
func (o *Observer) ObserveQueryError(kind string) {
	if o == nil {
		return
	}
	o.kind(kind).errors.Inc()
}

// ObserveCacheHit counts a query answered from the result cache.
func (o *Observer) ObserveCacheHit(kind string) {
	if o == nil {
		return
	}
	o.kind(kind).cacheHits.Inc()
}

// ObserveCacheMiss counts a cacheable query the result cache could not serve.
func (o *Observer) ObserveCacheMiss(kind string) {
	if o == nil {
		return
	}
	o.kind(kind).cacheMisses.Inc()
}

// SetSnapshotGeneration refreshes the published-snapshot generation gauge
// and, when the generation changed, stamps the swap time behind SnapshotAge.
func (o *Observer) SetSnapshotGeneration(gen uint64) {
	if o == nil {
		return
	}
	o.gauges.generation.Set(float64(gen))
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

// SetCacheEntries refreshes the result-cache occupancy gauge.
func (o *Observer) SetCacheEntries(n int) {
	if o == nil {
		return
	}
	o.gauges.cacheEntries.Set(float64(n))
}

func newQueryMetrics(reg *Registry, kind string) *queryMetrics {
	secondsBounds := ExpBuckets(1e-5, 2.5, 14) // 10µs .. ~1.5s
	workBounds := ExpBuckets(1, 4, 10)         // 1 .. 262144
	fanBounds := []float64{0, 1, 2, 4, 8, 16, 32, 64, 128}
	l := L("kind", kind)
	return &queryMetrics{
		total:       reg.Counter(MetricQueries, "Queries evaluated, by query kind.", l),
		errors:      reg.Counter(MetricQueryErrors, "Queries rejected at parse time, by query kind.", l),
		cacheHits:   reg.Counter(MetricCacheHits, "Queries answered from the result cache, by query kind.", l),
		cacheMisses: reg.Counter(MetricCacheMisses, "Cacheable queries that missed the result cache, by query kind.", l),
		seconds:     reg.Histogram(MetricQuerySeconds, "Query wall time in seconds.", secondsBounds, l),
		visited:     reg.Histogram(MetricQueryIndexVisited, "Index nodes visited per query (the paper's traversal cost).", workBounds, l),
		validated:   reg.Histogram(MetricQueryDataValidated, "Data nodes inspected by validation per query (the paper's validation cost).", workBounds, l),
		fanout:      reg.Histogram(MetricQueryValidations, "Matched index nodes requiring validation per query.", fanBounds, l),
		results:     reg.Histogram(MetricQueryResults, "Result set size per query.", workBounds, l),
	}
}

func (o *Observer) kind(kind string) *queryMetrics {
	if m, ok := (*o.queryKinds.Load())[kind]; ok {
		return m
	}
	// Unknown kinds register lazily, copy-on-write; never on the hot path.
	o.mu.Lock()
	defer o.mu.Unlock()
	cur := *o.queryKinds.Load()
	if m, ok := cur[kind]; ok {
		return m
	}
	next := make(map[string]*queryMetrics, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	m := newQueryMetrics(o.Registry, kind)
	next[kind] = m
	o.queryKinds.Store(&next)
	return m
}

// SampleTrace begins a sampled trace (nil when not sampled) and counts it.
func (o *Observer) SampleTrace(kind, query string) *Trace {
	if o == nil {
		return nil
	}
	t := o.Tracer.Sample(kind, query)
	if t != nil {
		o.sampled.Inc()
	}
	return t
}

// FinishTrace hands a trace back to the tracer; nil-safe on both.
func (o *Observer) FinishTrace(t *Trace) {
	if o == nil {
		return
	}
	o.Tracer.Finish(t)
}

// RecordEvent publishes a lifecycle event and bumps its per-type counter.
func (o *Observer) RecordEvent(e Event) {
	if o == nil {
		return
	}
	o.eventCounter(e.Type).Inc()
	if o.Events != nil {
		o.Events.Publish(e)
	}
}

func (o *Observer) eventCounter(t EventType) *Counter {
	o.mu.Lock()
	defer o.mu.Unlock()
	c, ok := o.evCounters[t]
	if !ok {
		c = o.Registry.Counter(MetricLifecycleEvents, "Index lifecycle events, by event type.", L("type", string(t)))
		o.evCounters[t] = c
	}
	return c
}

// SetIndexSize refreshes the index size gauges; call after any mutation.
func (o *Observer) SetIndexSize(dataNodes, dataEdges, indexNodes, indexEdges, maxK int) {
	if o == nil {
		return
	}
	o.gauges.dataNodes.Set(float64(dataNodes))
	o.gauges.dataEdges.Set(float64(dataEdges))
	o.gauges.indexNodes.Set(float64(indexNodes))
	o.gauges.indexEdges.Set(float64(indexEdges))
	o.gauges.maxK.Set(float64(maxK))
}

// MemorySample carries the succinct-set footprint of an index (kept
// decoupled from the index package, like BuildSample): resident bytes by
// encoding plus the bytes equivalent uncompressed slices would occupy.
type MemorySample struct {
	ExtentSparseBytes  int
	ExtentDenseBytes   int
	ExtentRawBytes     int
	PostingSparseBytes int
	PostingDenseBytes  int
	PostingRawBytes    int
}

// SetExtentMemory refreshes the succinct-set memory gauges; call after any
// mutation, alongside SetIndexSize.
func (o *Observer) SetExtentMemory(m MemorySample) {
	if o == nil {
		return
	}
	o.gauges.extSparse.Set(float64(m.ExtentSparseBytes))
	o.gauges.extDense.Set(float64(m.ExtentDenseBytes))
	o.gauges.extRaw.Set(float64(m.ExtentRawBytes))
	o.gauges.extRatio.Set(ratio(m.ExtentRawBytes, m.ExtentSparseBytes+m.ExtentDenseBytes))
	o.gauges.postSparse.Set(float64(m.PostingSparseBytes))
	o.gauges.postDense.Set(float64(m.PostingDenseBytes))
	o.gauges.postRaw.Set(float64(m.PostingRawBytes))
	o.gauges.postRatio.Set(ratio(m.PostingRawBytes, m.PostingSparseBytes+m.PostingDenseBytes))
}

func ratio(raw, resident int) float64 {
	if resident <= 0 {
		return 0
	}
	return float64(raw) / float64(resident)
}

// AddDanglingRefs counts IDREFs that resolved to no element during a load.
func (o *Observer) AddDanglingRefs(n int) {
	if o == nil || n <= 0 {
		return
	}
	o.dangling.Add(uint64(n))
}
