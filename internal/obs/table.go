package obs

// This file is the metric table: every dk_* family the module exposes,
// declared once as a row of what /v1/metrics prints for it — name, type,
// help text, a histogram's bucket bounds — and its label keys. A key that
// lists its values is fixed: the row's owner registers one series per
// combination when it is built, exposed at zero before first use. A key
// without values takes them at first use (routes, event types, triggers).
//
// The exposition lists families in first-registration order, so the rows
// are in that order: the observer's, the server's RED rows (registered per
// route), the runtime collector's. Go initialises them in declaration order
// because everything they use is declared above them in this file.

// MetricType is the Prometheus type of a family.
type MetricType string

// The three types the registry renders.
const (
	CounterType   MetricType = "counter"
	GaugeType     MetricType = "gauge"
	HistogramType MetricType = "histogram"
)

// Key is one label key of a row, with its values when they are fixed.
type Key struct {
	Name   string
	Values []string
}

// Family is one row of the metric table.
type Family struct {
	Name   string
	Type   MetricType
	Help   string
	Bounds []float64 // histograms only: cumulative upper bounds, +Inf implied
	Keys   []Key

	id int // position in table
}

// table holds every row in declaration order.
var table []*Family

func row(typ MetricType, name, help string, bounds []float64, keys ...Key) *Family {
	f := &Family{Name: name, Type: typ, Help: help, Bounds: bounds, Keys: keys, id: len(table)}
	table = append(table, f)
	return f
}

var (
	// queryKinds are the query kinds Run serves, in the order of their series.
	queryKinds = []string{"path", "rpe", "twig"}

	byKind     = Key{"kind", queryKinds}
	bySetKind  = Key{"kind", []string{"extent"}}
	byEncoding = Key{"encoding", []string{"sparse", "dense"}}
	// byStage names a group commit's stages in the order they run: the
	// copy-on-write clone of the published snapshot, the application of
	// every member, the WAL append + fsync, and the snapshot swap.
	byStage = Key{"stage", []string{"clone", "apply", "wal", "publish"}}

	secondsBounds = ExpBuckets(1e-5, 2.5, 14) // 10µs .. ~1.5s
	workBounds    = ExpBuckets(1, 4, 10)      // 1 .. 262144
)

// The rows. First the observer's; per query kind: the paper's two cost
// terms (index nodes visited, data nodes validated), validation fan-out,
// result size, latency, parse errors and result-cache outcomes.
var (
	Queries            = row(CounterType, "dk_queries_total", "Queries evaluated, by query kind.", nil, byKind)
	QueryErrors        = row(CounterType, "dk_query_errors_total", "Queries rejected at parse time, by query kind.", nil, byKind)
	CacheHits          = row(CounterType, "dk_query_cache_hits_total", "Queries answered from the result cache, by query kind.", nil, byKind)
	CacheMisses        = row(CounterType, "dk_query_cache_misses_total", "Cacheable queries that missed the result cache, by query kind.", nil, byKind)
	QuerySeconds       = row(HistogramType, "dk_query_duration_seconds", "Query wall time in seconds.", secondsBounds, byKind)
	QueryIndexVisited  = row(HistogramType, "dk_query_index_nodes_visited", "Index nodes visited per query (the paper's traversal cost).", workBounds, byKind)
	QueryDataValidated = row(HistogramType, "dk_query_data_nodes_validated", "Data nodes inspected by validation per query (the paper's validation cost).", workBounds, byKind)
	QueryValidations   = row(HistogramType, "dk_query_validations", "Matched index nodes requiring validation per query.", []float64{0, 1, 2, 4, 8, 16, 32, 64, 128}, byKind)
	QueryResults       = row(HistogramType, "dk_query_results", "Result set size per query.", workBounds, byKind)

	// Index size, the published snapshot and the result cache.
	DataNodes          = row(GaugeType, "dk_data_nodes", "Data graph node count.", nil)
	DataEdges          = row(GaugeType, "dk_data_edges", "Data graph edge count.", nil)
	IndexNodes         = row(GaugeType, "dk_index_nodes", "Index graph node count (the paper's index size).", nil)
	IndexEdges         = row(GaugeType, "dk_index_edges", "Index graph edge count.", nil)
	IndexMaxK          = row(GaugeType, "dk_index_max_k", "Largest local similarity of any index node.", nil)
	SnapshotGeneration = row(GaugeType, "dk_snapshot_generation", "Generation of the currently published index snapshot.", nil)
	CacheEntries       = row(GaugeType, "dk_query_cache_entries", "Result cache entries for the current generation.", nil)

	// Succinct-set memory: resident bytes by physical encoding, the bytes
	// plain node slices would occupy, and the ratio of the two.
	SetBytes       = row(GaugeType, "dk_set_bytes", "Resident bytes of succinct node sets, by kind and physical encoding.", nil, bySetKind, byEncoding)
	SetRawBytes    = row(GaugeType, "dk_set_raw_bytes", "Bytes uncompressed node slices would occupy, by kind.", nil, bySetKind)
	SetCompression = row(GaugeType, "dk_set_compression_ratio", "Raw-to-resident compression ratio of succinct node sets, by kind.", nil, bySetKind)

	DanglingRefs  = row(CounterType, "dk_load_dangling_refs_total", "IDREF attributes that resolved to no element at load time.", nil)
	TracesSampled = row(CounterType, "dk_traces_sampled_total", "Query traces sampled.", nil)

	// Durability, fed by the dkindex Store, and HTTP resilience, fed by the
	// server middleware.
	WALRecords            = row(CounterType, "dk_wal_records_total", "Write-ahead-log records appended and fsynced.", nil)
	WALBytes              = row(CounterType, "dk_wal_bytes_total", "Bytes appended to the write-ahead log.", nil)
	WALGroups             = row(CounterType, "dk_wal_groups_total", "Group frames appended to the write-ahead log (one fsync each).", nil)
	Checkpoints           = row(CounterType, "dk_checkpoints_total", "Checkpoints written successfully.", nil)
	CheckpointBytes       = row(CounterType, "dk_checkpoint_bytes_total", "Bytes written by successful checkpoints.", nil)
	RecoveryReplayed      = row(CounterType, "dk_recovery_replayed_records_total", "WAL records replayed during startup recovery.", nil)
	RecoveryTruncatedTail = row(CounterType, "dk_recovery_truncated_tail_total", "Recoveries that truncated a torn WAL tail.", nil)
	HTTPShed              = row(CounterType, "dk_http_shed_total", "HTTP requests shed with 503 because the in-flight limit was reached.", nil)
	HTTPPanics            = row(CounterType, "dk_http_panics_total", "HTTP handler panics recovered by the middleware.", nil)

	// Construction, fed by every index (re)build.
	BuildSeconds    = row(HistogramType, "dk_build_duration_seconds", "Index construction wall time in seconds.", ExpBuckets(1e-4, 2.5, 14))
	BuildCSRSeconds = row(HistogramType, "dk_build_csr_duration_seconds", "Time spent snapshotting adjacency into CSR form per build.", secondsBounds)
	BuildRounds     = row(HistogramType, "dk_build_rounds", "Refinement rounds per build (k_max after broadcast).", []float64{0, 1, 2, 3, 4, 6, 8, 12, 16, 24})
	BuildSplits     = row(CounterType, "dk_build_splits_total", "Index nodes created by refinement across all builds.", nil)
	BuildPeakBlocks = row(GaugeType, "dk_build_peak_blocks", "Partition blocks at the end of the most recent build's refinement.", nil)

	// The write pipeline: group commits, the mutations they carried or
	// rejected, their size and latency by stage, and the last assigned
	// sequence number against the acknowledged-durable watermark (a widening
	// gap means the committer is falling behind).
	BatchCommits      = row(CounterType, "dk_batch_commits_total", "Group commits: one WAL fsync and one snapshot swap each.", nil)
	BatchMutations    = row(CounterType, "dk_batch_mutations_total", "Mutations applied through group commits.", nil)
	BatchRejected     = row(CounterType, "dk_batch_mutations_rejected_total", "Mutations rejected by validation or a failed group append.", nil)
	BatchSize         = row(HistogramType, "dk_batch_size", "Mutations applied per group commit.", []float64{1, 2, 4, 8, 16, 32, 64, 128, 256})
	BatchFlushSeconds = row(HistogramType, "dk_batch_flush_duration_seconds", "Group-commit wall time in seconds (apply + WAL fsync + swap).", secondsBounds)
	BatchStageSeconds = row(HistogramType, "dk_batch_stage_duration_seconds", "Group-commit wall time in seconds, by stage.", ExpBuckets(1e-6, 2.5, 16), byStage)
	MutationSeq       = row(GaugeType, "dk_mutation_seq", "Last assigned mutation sequence number.", nil)
	MutationWatermark = row(GaugeType, "dk_mutation_watermark", "Acknowledged-durable mutation watermark.", nil)

	// Replication, fed by a replica tailing a primary's WAL feed.
	ReplAppliedSeq = row(GaugeType, "dk_repl_applied_seq", "Last global WAL sequence the replica applied.", nil)
	ReplPrimarySeq = row(GaugeType, "dk_repl_primary_seq", "Primary head global WAL sequence last reported by the feed.", nil)
	ReplLagSeq     = row(GaugeType, "dk_repl_lag_seq", "Replica lag: primary head minus applied global sequence.", nil)
	ReplStale      = row(GaugeType, "dk_repl_stale", "1 while replica lag exceeds the configured bound (still serving).", nil)
	ReplRetries    = row(CounterType, "dk_repl_retries_total", "Failed replication feed requests that were retried with backoff.", nil)
	ReplReconnects = row(CounterType, "dk_repl_reconnects_total", "Replication stream restarts: instance changes or lost positions forcing a re-bootstrap.", nil)

	LifecycleEvents = row(CounterType, "dk_lifecycle_events_total", "Index lifecycle events, by event type.", nil, Key{Name: "type"})
	Builds          = row(CounterType, "dk_builds_total", "Index constructions, by trigger.", nil, Key{Name: "trigger"})

	// The server's RED rows: per route, requests, errors by status class,
	// requests in flight and latency.
	HTTPRequests = row(CounterType, "dk_http_requests_total", "HTTP requests served, by route.", nil, Key{Name: "route"})
	HTTPErrors   = row(CounterType, "dk_http_errors_total", "HTTP error responses, by route and status class.", nil, Key{Name: "route"}, Key{"class", []string{"4xx", "5xx"}})
	HTTPInFlight = row(GaugeType, "dk_http_inflight_requests", "HTTP requests currently being served, by route.", nil, Key{Name: "route"})
	HTTPDuration = row(HistogramType, "dk_http_request_duration_seconds", "HTTP request latency in seconds, by route.", secondsBounds, Key{Name: "route"})

	// The runtime collector's rows.
	RuntimeGoroutines  = row(GaugeType, "dk_runtime_goroutines", "Live goroutines.", nil)
	RuntimeGomaxprocs  = row(GaugeType, "dk_runtime_gomaxprocs", "GOMAXPROCS: OS threads executing Go code simultaneously.", nil)
	RuntimeHeapAlloc   = row(GaugeType, "dk_runtime_heap_alloc_bytes", "Bytes of allocated heap objects.", nil)
	RuntimeHeapSys     = row(GaugeType, "dk_runtime_heap_sys_bytes", "Bytes of heap memory obtained from the OS.", nil)
	RuntimeHeapObjects = row(GaugeType, "dk_runtime_heap_objects", "Live heap objects.", nil)
	RuntimeGCLastPause = row(GaugeType, "dk_runtime_gc_last_pause_seconds", "Most recent GC stop-the-world pause in seconds.", nil)
	SnapshotAgeSeconds = row(GaugeType, "dk_snapshot_age_seconds", "Seconds since the served index snapshot was published.", nil)
	RuntimeGCCycles    = row(CounterType, "dk_runtime_gc_cycles_total", "Completed GC cycles.", nil)
	RuntimeGCPause     = row(CounterType, "dk_runtime_gc_pause_ns_total", "Cumulative GC stop-the-world pause, nanoseconds.", nil)
	RuntimeCollections = row(CounterType, "dk_runtime_collections_total", "Runtime telemetry polls.", nil)
)

// Counter registers (or returns) the series of a counter row with the given
// label values, one per key in order.
func (f *Family) Counter(r *Registry, values ...string) *Counter { return r.series(f, values).c }

// Gauge registers (or returns) the series of a gauge row.
func (f *Family) Gauge(r *Registry, values ...string) *Gauge { return r.series(f, values).g }

// Histogram registers (or returns) the series of a histogram row.
func (f *Family) Histogram(r *Registry, values ...string) *Histogram { return r.series(f, values).h }

// handles holds the fixed series of a run of rows by row id, each row's in
// the order of its values' combinations, the first key varying slowest.
// Built once, read without a lock.
type handles [][]*series

// register registers the fixed series of rows, in order.
func (r *Registry) register(rows []*Family) handles {
	h := make(handles, len(table))
	for _, f := range rows {
		combos := [][]string{nil}
		for _, k := range f.Keys {
			var next [][]string
			for _, c := range combos {
				for _, v := range k.Values {
					next = append(next, append(c[:len(c):len(c)], v))
				}
			}
			combos = next // empty when a key takes its values at first use
		}
		for _, c := range combos {
			h[f.id] = append(h[f.id], r.series(f, c))
		}
	}
	return h
}

// of returns the one series of a label-free row.
func (h handles) of(f *Family) *series { return h[f.id][0] }
