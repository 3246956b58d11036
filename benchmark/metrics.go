package main

import (
	"encoding/json"
	"strings"
)

// metricDef describes one reported metric. BENCHMARK.json lists the same
// names, units, directions and bounds: `benchmark -manifest` prints it from
// these tables and a test keeps the committed file in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: relative worsening that counts as a regression
	moves  string  // per-layer only: the end-to-end metrics it should move, on which workloads
}

// endToEnd are the metrics every workload reports with -trace 0, each with
// the relative worsening that counts as a regression. They are the run-level
// numbers (runLevel) that repeat from run to run on the shared two-vCPU hosts
// the benchmark runs on; README.md has the measurements behind that choice
// and behind setup_s's bound.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "alloc_kb_per_op", unit: "kB", better: "lower", bound: 0.03},
}

// runLevel names the seven numbers every untraced run measures and prints,
// in report order. The ones with a bound are in endToEnd. The others spread
// from run to run by more than a third of the widest bound the benchmark
// allows itself (0.10), so they are listed in perLayer: the traced run, which
// begins with a full untraced run of the named workload, reports them.
var runLevel = []string{"setup_s", "op_rps", "op_p50_ms", "op_p90_ms", "cpu_ms_per_op", "alloc_kb_per_op", "rss_peak_mb"}

// findDef looks a metric up in both tables; bounded says it is end-to-end.
func findDef(name string) (def metricDef, bounded bool) {
	for _, def := range endToEnd {
		if def.name == name {
			return def, true
		}
	}
	for _, def := range perLayer {
		if def.name == name {
			return def, false
		}
	}
	panic("no metric named " + name) // the tables are compiled in
}

// What each group of per-layer metrics should move. The traced run prints it
// beside every value.
const (
	movesRun     = "itself: the named workload's own untraced run, without a bound because runs of one binary spread by more than 3% here"
	movesBuild   = "setup_s, rss_peak_mb on read_cold, write_durable"
	movesCodec   = "setup_s on read_hot, mixed_rw"
	movesStore   = "setup_s on write_durable, mixed_rw"
	movesEval    = "op_rps, op_p50_ms, op_p90_ms, cpu_ms_per_op on read_cold and the miss share of mixed_rw; nothing on read_hot, write_durable"
	movesHit     = "op_rps, op_p50_ms, alloc_kb_per_op on read_hot; under 3% of read_cold"
	movesClass   = "the class behind op_p50_ms, op_p90_ms on the workload in the name"
	movesWrite   = "op_rps, op_p50_ms, cpu_ms_per_op, alloc_kb_per_op, rss_peak_mb on write_durable; op_rps on mixed_rw; nothing on the read workloads"
	movesShard   = "no end-to-end metric yet, by design"
	movesRuntime = "cpu_ms_per_op, rss_peak_mb on the workload in the name"
	movesNet     = "nothing: what the in-process workloads leave out of a served request"
	movesTrace   = "nothing: traced over untraced op_rps of the named workload"
)

// perLayer are the metrics of single layers every run reports with -trace 1.
var perLayer = []metricDef{
	// The run-level numbers that carry no bound.
	{name: "op_rps", unit: "1/s", better: "higher", moves: movesRun},
	{name: "op_p50_ms", unit: "ms", better: "lower", moves: movesRun},
	{name: "op_p90_ms", unit: "ms", better: "lower", moves: movesRun},
	{name: "cpu_ms_per_op", unit: "ms", better: "lower", moves: movesRun},
	{name: "rss_peak_mb", unit: "MB", better: "lower", moves: movesRun},
	// Parse and build.
	{name: "xmlgraph.load_ms", unit: "ms", better: "lower", moves: movesBuild},
	{name: "core.build_ms", unit: "ms", better: "lower", moves: movesBuild},
	{name: "partition.refine_rounds", unit: "count", better: "lower", moves: movesBuild},
	{name: "index.nodes", unit: "count", better: "lower", moves: movesBuild},
	{name: "index.edges", unit: "count", better: "lower", moves: movesBuild},
	{name: "nodeset.bytes_per_node", unit: "B", better: "lower", moves: movesBuild},
	// Codec.
	{name: "codec.save_ms", unit: "ms", better: "lower", moves: movesCodec},
	{name: "codec.load_ms", unit: "ms", better: "lower", moves: movesCodec},
	{name: "codec.bytes", unit: "B", better: "lower", moves: movesCodec},
	// Store.
	{name: "store.create_ms", unit: "ms", better: "lower", moves: movesStore},
	{name: "store.checkpoint_ms", unit: "ms", better: "lower", moves: movesStore},
	{name: "store.open_ckpt_ms", unit: "ms", better: "lower", moves: movesStore},
	{name: "store.recover_ms_per_record", unit: "ms", better: "lower", moves: movesStore},
	// Evaluators and the paper's cost model.
	{name: "eval.path_ms_per_op", unit: "ms", better: "lower", moves: movesEval},
	{name: "eval.twig_ms_per_op", unit: "ms", better: "lower", moves: movesEval},
	{name: "eval.rpe_ms_per_op", unit: "ms", better: "lower", moves: movesEval},
	{name: "eval.index_nodes_visited_per_op", unit: "count", better: "lower", moves: movesEval},
	{name: "eval.data_nodes_validated_per_op", unit: "count", better: "lower", moves: movesEval},
	{name: "eval.validated_share", unit: "ratio", better: "lower", moves: movesEval},
	// The hit path.
	{name: "eval.parse_us_per_op", unit: "us", better: "lower", moves: movesHit},
	{name: "rpe.parse_compile_us_per_op", unit: "us", better: "lower", moves: movesHit},
	{name: "qcache.get_hit_ns", unit: "ns", better: "lower", moves: movesHit},
	{name: "qcache.hit_ratio.read_hot", unit: "ratio", better: "higher", moves: movesHit},
	{name: "qcache.hit_ratio.mixed_rw", unit: "ratio", better: "higher", moves: movesHit},
	{name: "dkindex.run_self_us.hot", unit: "us", better: "lower", moves: movesHit},
	{name: "dkindex.run_self_us.cold", unit: "us", better: "lower", moves: movesHit},
	{name: "server.self_us_per_op.hot", unit: "us", better: "lower", moves: movesHit},
	{name: "server.self_us_per_op.cold", unit: "us", better: "lower", moves: movesHit},
	{name: "server.resp_bytes_per_op", unit: "B", better: "lower", moves: movesHit},
	{name: "obs.observe_overhead_ratio", unit: "ratio", better: "lower", moves: movesHit},
	// Per-class latencies.
	{name: "server.query_p50_ms.mixed_rw", unit: "ms", better: "lower", moves: movesClass},
	{name: "server.query_p99_ms.read_cold", unit: "ms", better: "lower", moves: movesClass},
	{name: "server.mutate_p50_ms.mixed_rw", unit: "ms", better: "lower", moves: movesClass},
	{name: "server.mutate_p50_ms.write_durable", unit: "ms", better: "lower", moves: movesClass},
	// The write path.
	{name: "core.clone_for_update_ms", unit: "ms", better: "lower", moves: movesWrite},
	{name: "core.clone_detached_ms", unit: "ms", better: "lower", moves: movesWrite},
	{name: "core.clone_index_ms", unit: "ms", better: "lower", moves: movesWrite},
	{name: "dkindex.apply_batch_ms.mem", unit: "ms", better: "lower", moves: movesWrite},
	{name: "dkindex.apply_batch_ms.durable", unit: "ms", better: "lower", moves: movesWrite},
	{name: "wal.append_group_ms", unit: "ms", better: "lower", moves: movesWrite},
	{name: "wal.bytes_per_mutation", unit: "B", better: "lower", moves: movesWrite},
	{name: "fsx.fsyncs_per_batch", unit: "count", better: "lower", moves: movesWrite},
	{name: "fsx.write_bytes_per_batch", unit: "B", better: "lower", moves: movesWrite},
	{name: "batcher.mutations_per_commit", unit: "count", better: "higher", moves: movesWrite},
	// Scatter-gather.
	{name: "shard.run_ms_per_op.n1", unit: "ms", better: "lower", moves: movesShard},
	{name: "shard.run_ms_per_op.n4", unit: "ms", better: "lower", moves: movesShard},
	{name: "shard.overhead_ratio.n1", unit: "ratio", better: "lower", moves: movesShard},
	{name: "shard.merge_share.n4", unit: "ratio", better: "lower", moves: movesShard},
	{name: "shard.skew.n4", unit: "ratio", better: "lower", moves: movesShard},
	// The runtime and the kernel.
	{name: "runtime.gc_cycles_per_kop.read_cold", unit: "count", better: "lower", moves: movesRuntime},
	{name: "runtime.gc_cycles_per_kop.read_hot", unit: "count", better: "lower", moves: movesRuntime},
	{name: "runtime.gc_cycles_per_kop.write_durable", unit: "count", better: "lower", moves: movesRuntime},
	{name: "runtime.gc_cycles_per_kop.mixed_rw", unit: "count", better: "lower", moves: movesRuntime},
	{name: "runtime.gc_cpu_fraction.read_cold", unit: "ratio", better: "lower", moves: movesRuntime},
	{name: "runtime.gc_cpu_fraction.read_hot", unit: "ratio", better: "lower", moves: movesRuntime},
	{name: "runtime.gc_cpu_fraction.write_durable", unit: "ratio", better: "lower", moves: movesRuntime},
	{name: "runtime.gc_cpu_fraction.mixed_rw", unit: "ratio", better: "lower", moves: movesRuntime},
	{name: "net.loopback_extra_us_per_op", unit: "us", better: "lower", moves: movesNet},
	{name: "trace.overhead_ratio", unit: "ratio", better: "higher", moves: movesTrace},
}

// manifestJSON renders BENCHMARK.json from the tables above.
func manifestJSON() []byte {
	type entry map[string]any
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, entry{"name": w.name, "why": w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, entry{"name": d.name, "unit": d.unit, "better": d.better, "bound": d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, entry{"name": d.name, "unit": d.unit, "better": d.better})
	}
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&doc); err != nil {
		panic(err) // strings and numbers always encode
	}
	return []byte(b.String())
}
