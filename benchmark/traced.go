package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"time"

	"dkindex/internal/fsx"
)

// The traced run (-trace 1) reports the per-layer metrics. It first runs the
// named workload untraced, exactly as -trace 0 does: that is the reference
// for trace.overhead_ratio and for the check that the layers' self times add
// up to the untraced op. Then, whatever -workload names, it replays the first
// rounds of all four workloads with spans on, because the builder's contract
// wants every per-layer metric from every traced run.

// replayStats is what the replay of one workload's first rounds yields.
type replayStats struct {
	ph      phase
	setupS  float64
	layers  map[string]layerTime
	reads   []int64 // sorted root-span durations of reads
	writes  []int64 // sorted root-span durations of writes
	hits    int     // reads answered from the result cache
	bytes   int64   // response bytes of reads
	fs      fsCounts
	commits uint64  // snapshot generations the rounds published
	ckptMS  float64 // one Store.Checkpoint after the rounds
	selfSum float64 // sum of all layers' self time per op, ns
	wallNS  float64 // wall time per op, ns
}

var cacheHitMarker = []byte(`"cacheHit":true`)

// replay sets workload x up with spans and the counting filesystem, runs its
// warm-up round and the first `rounds` rounds of its op list, and tears it
// down again.
func (r *run) replay(x *workload, tr *tracer, rounds int) (*replayStats, error) {
	env := r.env
	env.tr = tr
	env.fs = &countingFS{FS: fsx.OS{}, tr: tr}
	t, setupS, err := r.setUp(x, &env)
	if err != nil {
		return nil, err
	}
	st := &replayStats{setupS: setupS}
	d := newDriver(t.h, tr, env.p.Plan, env.reads)
	ops := x.ops(env.p, r.cfg.sz, r.cfg.seed)
	if err := r.checkSetUp(d, t, x); err != nil {
		return nil, err
	}
	if _, _, err := r.runRounds(d, t, ops, 1, x.checkpoint, x.name+" replay warm-up round"); err != nil {
		return nil, err
	}

	from := tr.len() // the spans of verification and warm-up are not the replay's
	fs0 := env.fs.counts()
	gen0 := t.idx.Generation()
	// Reads keep their bodies in the traced replay: the hit ratio is read off
	// the responses.
	d.onRead = func(body []byte) {
		st.bytes += int64(len(body))
		if bytes.Contains(body, cacheHitMarker) {
			st.hits++
		}
	}
	// The rounds run without checkpoints in between, so that the device
	// counts are those of the batches alone; one checkpoint is timed after.
	if st.ph, _, err = r.runRounds(d, t, ops, rounds, false, x.name+" replay round"); err != nil {
		return nil, err
	}
	st.fs = env.fs.counts().sub(fs0)
	st.commits = t.idx.Generation() - gen0
	st.layers = tr.selfTimes(from)
	st.reads, st.writes = tr.rootDurations(from)
	for _, lt := range st.layers {
		st.selfSum += float64(lt.SelfNS)
	}
	st.selfSum /= float64(st.ph.ops())
	var wall int64
	for _, rs := range st.ph.rounds {
		wall += rs.wallNS
	}
	st.wallNS = float64(wall) / float64(st.ph.ops())
	if x.checkpoint {
		start := time.Now()
		if err := t.store.Checkpoint(); err != nil {
			return nil, err
		}
		st.ckptMS = float64(time.Since(start)) / 1e6
	}
	return st, r.tearDown(t)
}

// executeTraced is the -trace 1 run.
func (r *run) executeTraced() (map[string]metric, error) {
	out := r.cfg.out
	rounds := tracedRounds
	if r.cfg.sz.smoke {
		rounds = 2
	}

	// The named workload, untraced and in full: the reference the traced
	// replay is compared with, and the source of the run-level metrics that
	// are reported without a bound.
	untraced, err := r.execute()
	if err != nil {
		return nil, err
	}
	m := layerMetrics{}
	for _, def := range perLayer {
		if v, ok := untraced[def.name]; ok {
			m[def.name] = v
		}
	}

	tr := newTracer()
	stats := make(map[string]*replayStats, len(workloads))
	for _, x := range workloads {
		st, err := r.replay(x, tr, rounds)
		if err != nil {
			return nil, err
		}
		stats[x.name] = st
		ops := float64(st.ph.ops())
		var gcCPU, cpu float64
		var cycles uint32
		for _, rs := range st.ph.rounds {
			gcCPU += rs.gcCPUSeconds
			cpu += float64(rs.cpuNS) / 1e9
			cycles += rs.gcCycles
		}
		m.set("runtime.gc_cycles_per_kop."+x.name, float64(cycles)/ops*1e3, "count")
		m.set("runtime.gc_cpu_fraction."+x.name, gcCPU/cpu, "ratio")
		fmt.Fprintf(out, "%s replay: %d rounds, %d ops, %.1f us/op traced; self time per op:", x.name, rounds, st.ph.ops(), st.wallNS/1e3)
		for _, name := range []string{"server", "dkindex.run", "dkindex.apply_batch", "fsx.write", "fsx.sync", "fsx.syncdir", "fsx.rename"} {
			if lt, ok := st.layers[name]; ok {
				fmt.Fprintf(out, " %s=%.1fus", name, float64(lt.SelfNS)/ops/1e3)
			}
		}
		fmt.Fprintln(out)
	}

	own := stats[r.cfg.w.name]
	untracedNS := 1e9 / untraced["op_rps"].Value
	m.set("trace.overhead_ratio", median(own.ph.perRound(roundRPS))/untraced["op_rps"].Value, "ratio")
	fmt.Fprintf(out, "%s: layer self times sum to %.1f us/op, %.2f%% of the traced op; the untraced op took %.1f us (%+.1f%%)\n",
		r.cfg.w.name, own.selfSum/1e3, 100*own.selfSum/own.wallNS, untracedNS/1e3, 100*(own.selfSum/untracedNS-1))

	ep, err := runProbes(m, &r.env, r.cfg.sz)
	if err != nil {
		return nil, err
	}

	perOpUS := func(st *replayStats, layer string, self bool) float64 {
		lt := st.layers[layer]
		ns := lt.WallNS
		if self {
			ns = lt.SelfNS
		}
		return float64(ns) / float64(max(lt.Count, 1)) / 1e3
	}
	cold, hot, wr, mixed := stats["read_cold"], stats["read_hot"], stats["write_durable"], stats["mixed_rw"]
	m.set("server.self_us_per_op.cold", perOpUS(cold, "server", true), "us")
	m.set("server.self_us_per_op.hot", perOpUS(hot, "server", true), "us")
	// Run minus what is below it. On a miss both sides come from the eval
	// probe, which times them op by op; on a hit Run is the traced span, and
	// parse and the cache lookup come from the probes.
	m.set("dkindex.run_self_us.cold", ep.runUS-ep.parseUS-ep.evalUS, "us")
	m.set("dkindex.run_self_us.hot", perOpUS(hot, "dkindex.run", false)-ep.parseUS-m["qcache.get_hit_ns"].Value/1e3, "us")
	m.set("server.resp_bytes_per_op", float64(hot.bytes)/float64(hot.ph.ops()), "B")
	m.set("qcache.hit_ratio.read_hot", float64(hot.hits)/float64(len(hot.reads)), "ratio")
	m.set("qcache.hit_ratio.mixed_rw", float64(mixed.hits)/float64(len(mixed.reads)), "ratio")
	m.set("server.query_p50_ms.mixed_rw", float64(percentile(mixed.reads, 0.50))/1e6, "ms")
	m.set("server.query_p99_ms.read_cold", float64(percentile(cold.reads, 0.99))/1e6, "ms")
	m.set("server.mutate_p50_ms.mixed_rw", float64(percentile(mixed.writes, 0.50))/1e6, "ms")
	m.set("server.mutate_p50_ms.write_durable", float64(percentile(wr.writes, 0.50))/1e6, "ms")
	batches := float64(wr.ph.ops())
	m.set("fsx.fsyncs_per_batch", float64(wr.fs.Fsyncs)/batches, "count")
	m.set("fsx.write_bytes_per_batch", float64(wr.fs.WriteBytes)/batches, "B")
	m.set("batcher.mutations_per_commit", batches*mutationsPerBatch/float64(wr.commits), "count")
	m.set("store.checkpoint_ms", wr.ckptMS, "ms")
	m.set("store.recover_ms_per_record",
		(mixed.setupS*1e3-m["store.open_ckpt_ms"].Value)/(walTailGroups*mutationsPerBatch), "ms")

	// The loopback probe needs a served, warmed index: set read_hot up once more.
	env := r.env
	t, err := findWorkload("read_hot").setup(&env)
	if err != nil {
		return nil, err
	}
	if err := probeLoopback(m, &env, t.h); err != nil {
		return nil, fmt.Errorf("loopback probe: %w", err)
	}

	r.lap("replays+probes")
	path := filepath.Join(r.cfg.dir, "trace.jsonl")
	if err := tr.writeJSONL(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "trace: %d spans written to %s\n", tr.len(), path)
	return m, nil
}
