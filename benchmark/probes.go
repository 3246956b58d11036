package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"dkindex"
	"dkindex/internal/codec"
	"dkindex/internal/core"
	"dkindex/internal/datagen"
	"dkindex/internal/eval"
	"dkindex/internal/fsx"
	"dkindex/internal/graph"
	"dkindex/internal/obs"
	"dkindex/internal/qcache"
	"dkindex/internal/rpe"
	"dkindex/internal/shard"
	"dkindex/internal/wal"
	"dkindex/internal/xmlgraph"
)

// The probes measure single layers by calling their public functions
// directly, on the same prepared inputs every workload uses. They are what
// the traced replay cannot see from outside Run and ApplyBatch. Each probe
// is small (well under a second); they are diagnostics with no bound, there
// to say where an end-to-end change came from.

// probeReps is how often a millisecond-scale probe repeats; it reports the
// median.
const probeReps = 5

type layerMetrics map[string]metric

func (m layerMetrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// timeMS runs f reps times and returns the median wall time in milliseconds.
func timeMS(reps int, f func() error) (float64, error) {
	ts := make([]float64, reps)
	for i := range ts {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ts[i] = float64(time.Since(start)) / 1e6
	}
	return median(ts), nil
}

// probeBuild: xmlgraph, core, partition, index, nodeset -> setup_s and
// rss_peak_mb on read_cold and write_durable.
func probeBuild(m layerMetrics, e *setupEnv) error {
	var g *graph.Graph
	ms, err := timeMS(probeReps, func() (err error) {
		g, _, err = xmlgraph.Load(bytes.NewReader(e.xml), nil)
		return err
	})
	if err != nil {
		return err
	}
	m.set("xmlgraph.load_ms", ms, "ms")
	reqs := core.ReqsFromNames(g.Labels(), e.p.Reqs)
	var dk *core.DK
	ms, _ = timeMS(probeReps, func() error { dk = core.Build(g, reqs); return nil })
	m.set("core.build_ms", ms, "ms")
	m.set("partition.refine_rounds", float64(dk.Stats.Rounds), "count")
	m.set("index.nodes", float64(dk.IG.NumNodes()), "count")
	m.set("index.edges", float64(dk.IG.NumEdges()), "count")
	mem := dk.IG.MemStats()
	m.set("nodeset.bytes_per_node", float64(mem.ExtentBytes()+mem.PostingBytes())/float64(g.NumNodes()), "B")
	return nil
}

// probeCodec: codec -> setup_s on read_hot and mixed_rw.
func probeCodec(m layerMetrics, idx *dkindex.Index) error {
	var buf bytes.Buffer
	ms, err := timeMS(probeReps, func() error { buf.Reset(); return codec.SaveDK(&buf, idx.DK()) })
	if err != nil {
		return err
	}
	m.set("codec.save_ms", ms, "ms")
	m.set("codec.bytes", float64(buf.Len()), "B")
	ms, err = timeMS(probeReps, func() error { _, err := codec.LoadDK(bytes.NewReader(buf.Bytes())); return err })
	m.set("codec.load_ms", ms, "ms")
	return err
}

// probeStore: CreateStore and OpenStore of a checkpoint with an
// empty log -> setup_s on write_durable and mixed_rw. Recovery per record
// comes from mixed_rw's traced set-up, which replays the prepared WAL tail.
func probeStore(m layerMetrics, e *setupEnv, dir string) error {
	var create, open []float64
	for i := 0; i < 3; i++ {
		idx, err := dkindex.OpenFile(filepath.Join(e.inputs, indexFile))
		if err != nil {
			return err
		}
		d := filepath.Join(dir, fmt.Sprintf("store-%d", i))
		start := time.Now()
		st, err := dkindex.CreateStore(d, idx, nil)
		if err != nil {
			return err
		}
		create = append(create, float64(time.Since(start))/1e6)
		if err := st.Close(); err != nil {
			return err
		}
		start = time.Now()
		st, rep, err := dkindex.OpenStore(d, nil)
		if err != nil {
			return err
		}
		open = append(open, float64(time.Since(start))/1e6)
		if rep.Replayed != 0 {
			return fmt.Errorf("store probe: %d records replayed from an empty log", rep.Replayed)
		}
		if err := st.Close(); err != nil {
			return err
		}
	}
	m.set("store.create_ms", median(create), "ms")
	m.set("store.open_ckpt_ms", median(open), "ms")
	return nil
}

// evalProbe is what probeEval hands on: the mean cost of a plan op in Run
// with the result cache off, and of what happens below Run.
type evalProbe struct {
	runUS   float64 // Index.Run per plan op, plan mix
	parseUS float64 // parse (and compile) per plan op, plan mix
	evalUS  float64 // evaluation per plan op, plan mix
}

// probeEval: eval and rpe called directly on the plan, by kind, with the
// paper's cost model counted exactly -> everything timed on read_cold and
// the miss share of mixed_rw; nothing on read_hot or write_durable.
func probeEval(m layerMetrics, idx *dkindex.Index, plan []planOp) (evalProbe, error) {
	idx.SetResultCache(0)
	ig := idx.IG()
	labels := ig.Data().Labels()
	// compile parses one plan op and returns its evaluation on the index.
	type evaluation func() ([]graph.NodeID, eval.Cost)
	compile := func(op planOp) (evaluation, error) {
		switch dkindex.Kind(op.Kind) {
		case dkindex.KindPath:
			q, err := eval.ParseQuery(labels, op.Query)
			return func() ([]graph.NodeID, eval.Cost) { return eval.Index(ig, q) }, err
		case dkindex.KindRPE:
			ex, err := rpe.Parse(op.Query)
			if err != nil {
				return nil, err
			}
			c := rpe.CompileExpr(ex, labels)
			return func() ([]graph.NodeID, eval.Cost) { return eval.IndexRPE(ig, c) }, nil
		case dkindex.KindTwig:
			tw, err := eval.ParseTwig(labels, op.Query)
			return func() ([]graph.NodeID, eval.Cost) { return eval.IndexTwig(ig, tw) }, err
		}
		return nil, fmt.Errorf("unknown query kind %q", op.Kind)
	}
	const passes, parseReps = 2, 40
	var evalNS, parseNS [3]int64 // path, rpe, twig
	var runNS int64
	var n [3]int
	var cost eval.Cost
	kindOf := map[string]int{"path": 0, "rpe": 1, "twig": 2}
	for pass := 0; pass < passes; pass++ {
		for _, op := range plan {
			k := kindOf[op.Kind]
			var run evaluation
			start := time.Now()
			for i := 0; i < parseReps; i++ {
				var err error
				if run, err = compile(op); err != nil {
					return evalProbe{}, err
				}
			}
			parseNS[k] += int64(time.Since(start)) / parseReps
			// The same op directly and through Run, one right after the other
			// and in alternating order, so that what Run adds to parse and
			// evaluation is a difference of neighbours in time and neither
			// side always finds the processor's caches warmed by the other.
			var c eval.Cost
			direct := func() error {
				start := time.Now()
				nodes, cost := run()
				evalNS[k] += int64(time.Since(start))
				if c = cost; len(nodes) != op.Want {
					return fmt.Errorf("eval probe: %s %q gives %d results, oracle %d", op.Kind, op.Query, len(nodes), op.Want)
				}
				return nil
			}
			through := func() error {
				start := time.Now()
				res, err := idx.Run(dkindex.Request{Kind: dkindex.Kind(op.Kind), Text: op.Query, Limit: 100})
				runNS += int64(time.Since(start))
				if err != nil || res.Total != op.Want {
					return fmt.Errorf("eval probe: Run %s %q gives %d results (%v), oracle %d", op.Kind, op.Query, res.Total, err, op.Want)
				}
				return nil
			}
			order := [2]func() error{direct, through}
			if pass%2 == 1 {
				order = [2]func() error{through, direct}
			}
			for _, f := range order {
				if err := f(); err != nil {
					return evalProbe{}, err
				}
			}
			n[k]++
			if pass == 0 {
				cost.Add(c)
			}
		}
	}
	perOp := func(ns int64, n int) float64 { return float64(ns) / float64(max(n, 1)) }
	m.set("eval.path_ms_per_op", perOp(evalNS[0], n[0])/1e6, "ms")
	m.set("eval.rpe_ms_per_op", perOp(evalNS[1], n[1])/1e6, "ms")
	m.set("eval.twig_ms_per_op", perOp(evalNS[2], n[2])/1e6, "ms")
	m.set("eval.parse_us_per_op", perOp(parseNS[0]+parseNS[2], n[0]+n[2])/1e3, "us")
	m.set("rpe.parse_compile_us_per_op", perOp(parseNS[1], n[1])/1e3, "us")
	ops := float64(len(plan))
	m.set("eval.index_nodes_visited_per_op", float64(cost.IndexNodesVisited)/ops, "count")
	m.set("eval.data_nodes_validated_per_op", float64(cost.DataNodesValidated)/ops, "count")
	m.set("eval.validated_share", float64(cost.DataNodesValidated)/float64(max(cost.Total(), 1)), "ratio")
	all := n[0] + n[1] + n[2]
	return evalProbe{
		runUS:   perOp(runNS, all) / 1e3,
		parseUS: perOp(parseNS[0]+parseNS[1]+parseNS[2], all) / 1e3,
		evalUS:  perOp(evalNS[0]+evalNS[1]+evalNS[2], all) / 1e3,
	}, nil
}

// probeCache: qcache.Get on a hit, and what an attached Observer costs a hot
// Run -> op_rps, op_p50_ms and alloc_kb_per_op on read_hot.
func probeCache(m layerMetrics, e *setupEnv) error {
	c := qcache.New(dkindex.DefaultResultCacheSize)
	keys := make([]string, len(e.p.Plan))
	for i, op := range e.p.Plan {
		keys[i] = op.Kind + "\x00" + op.Query
		c.Put(1, keys[i], &keys[i])
	}
	const gets = 2_000_000
	start := time.Now()
	for i := 0; i < gets; i++ {
		if _, ok := c.Get(1, keys[i%len(keys)]); !ok {
			return fmt.Errorf("cache probe: stored key missing")
		}
	}
	m.set("qcache.get_hit_ns", float64(time.Since(start))/gets, "ns")

	open := func(observe bool) (*dkindex.Index, error) {
		idx, err := dkindex.OpenFile(filepath.Join(e.inputs, indexFile))
		if err == nil && observe {
			idx.Observe(obs.NewObserver())
		}
		return idx, err
	}
	bare, err := open(false)
	if err != nil {
		return err
	}
	observed, err := open(true)
	if err != nil {
		return err
	}
	pass := func(idx *dkindex.Index) (time.Duration, error) {
		start := time.Now()
		for _, op := range e.p.Plan {
			if _, err := idx.Run(dkindex.Request{Kind: dkindex.Kind(op.Kind), Text: op.Query, Limit: 100}); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
	var tb, to []float64
	for i := 0; i < 1+40; i++ { // the first pass of each fills its cache
		db, err := pass(bare)
		if err != nil {
			return err
		}
		do, err := pass(observed)
		if err != nil {
			return err
		}
		if i > 0 {
			tb, to = append(tb, float64(db)), append(to, float64(do))
		}
	}
	m.set("obs.observe_overhead_ratio", median(to)/median(tb), "ratio")
	return nil
}

// probeWrite: the three clone grades, an 8-edge ApplyBatch with and without a
// store (the difference is the journal's share), and the same 8 records
// appended as one WAL group on the real filesystem -> op_rps, op_p50_ms,
// cpu_ms_per_op, alloc_kb_per_op and rss_peak_mb on write_durable; op_rps on
// mixed_rw; nothing on the read workloads.
func probeWrite(m layerMetrics, e *setupEnv, dir string) error {
	idx, err := dkindex.OpenFile(filepath.Join(e.inputs, indexFile))
	if err != nil {
		return err
	}
	dk := idx.DK()
	var sink *core.DK
	ms, _ := timeMS(probeReps, func() error { sink = dk.CloneForUpdate(); return nil })
	m.set("core.clone_for_update_ms", ms, "ms")
	ms, _ = timeMS(probeReps, func() error { sink = dk.CloneDetached(); return nil })
	m.set("core.clone_detached_ms", ms, "ms")
	ms, _ = timeMS(probeReps, func() error { sink = dk.CloneIndex(); return nil })
	m.set("core.clone_index_ms", ms, "ms")
	_ = sink

	const batches = 12
	cycle := func(idx *dkindex.Index) (float64, error) {
		pool := e.p.EdgePool
		var prev [][2]dkindex.NodeID
		ts := make([]float64, 0, batches)
		for b := 0; b <= batches; b++ {
			add := pool[(4*b)%len(pool) : (4*b)%len(pool)+4]
			start := time.Now()
			acks, err := idx.ApplyBatch(edgeBatch(add, prev))
			if err != nil {
				return 0, err
			}
			for _, a := range acks {
				if a.Err != nil {
					return 0, a.Err
				}
			}
			if b > 0 { // batch 0 carries only four mutations
				ts = append(ts, float64(time.Since(start))/1e6)
			}
			prev = add
		}
		return median(ts), nil
	}
	if ms, err = cycle(idx); err != nil {
		return err
	}
	m.set("dkindex.apply_batch_ms.mem", ms, "ms")

	durable, err := dkindex.OpenFile(filepath.Join(e.inputs, indexFile))
	if err != nil {
		return err
	}
	sdir := filepath.Join(dir, "apply-durable")
	st, err := dkindex.CreateStore(sdir, durable, nil)
	if err != nil {
		return err
	}
	ms, err = cycle(durable)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	m.set("dkindex.apply_batch_ms.durable", ms, "ms")

	// The last full group the durable index logged, appended again by the WAL
	// writer alone.
	var recs []wal.GroupRecord
	if _, err := wal.Replay(fsx.OS{}, filepath.Join(sdir, "wal-00000000.log"), func(r wal.Record) error {
		recs = append(recs, wal.GroupRecord{Op: r.Op, Payload: r.Payload})
		return nil
	}); err != nil {
		return err
	}
	if len(recs) < mutationsPerBatch {
		return fmt.Errorf("wal probe: only %d records logged", len(recs))
	}
	recs = recs[len(recs)-mutationsPerBatch:]
	w, err := wal.Create(fsx.OS{}, filepath.Join(dir, "probe.wal"))
	if err != nil {
		return err
	}
	var frame int
	ms, err = timeMS(4*probeReps, func() (err error) { frame, err = w.AppendGroup(recs); return err })
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	m.set("wal.append_group_ms", ms, "ms")
	m.set("wal.bytes_per_mutation", float64(frame)/mutationsPerBatch, "B")
	return nil
}

// probeShard: scatter-gather over 1 and 4 shards against the monolith on the
// same multi-document corpus, caches off. No end-to-end metric follows from
// it yet: on two CPUs a 4-way fan-out measures the scheduler.
func probeShard(m layerMetrics, sz sizes) error {
	const docs = 8
	corpus := make([][]byte, docs)
	for i := range corpus {
		cfg := datagen.XMarkScale(sz.scale / docs)
		cfg.Seed = int64(1 + i)
		var buf bytes.Buffer
		if err := datagen.XMark(cfg).WriteXML(&buf); err != nil {
			return err
		}
		corpus[i] = buf.Bytes()
	}
	reqs := []dkindex.Request{
		{Kind: dkindex.KindPath, Text: "site.people.person.name", Limit: 100},
		{Kind: dkindex.KindRPE, Text: "site//item", Limit: 100},
		{Kind: dkindex.KindTwig, Text: "item[incategory].name", Limit: 100},
	}
	type runner interface {
		Run(dkindex.Request) (dkindex.Result, error)
		ApplyBatch([]dkindex.Mutation) ([]dkindex.Ack, error)
		SetResultCache(int)
	}
	load := func(t runner) error {
		for _, doc := range corpus {
			acks, err := t.ApplyBatch([]dkindex.Mutation{{Op: dkindex.MutAddDocument, Doc: doc}})
			if err != nil {
				return err
			}
			if acks[0].Err != nil {
				return acks[0].Err
			}
		}
		t.SetResultCache(0)
		return nil
	}
	// perOp is the median over reps of the mean time of one request of the mix.
	const reps = 15
	perOp := func(run func(dkindex.Request) (dkindex.Result, error)) (float64, []int, error) {
		totals := make([]int, len(reqs))
		ms, err := timeMS(reps, func() error {
			for i, q := range reqs {
				res, err := run(q)
				if err != nil {
					return err
				}
				totals[i] = res.Total
			}
			return nil
		})
		return ms / float64(len(reqs)), totals, err
	}

	g := graph.New()
	g.AddRoot()
	mono := dkindex.FromGraph(g, nil)
	if err := load(mono); err != nil {
		return err
	}
	monoMS, want, err := perOp(mono.Run)
	if err != nil {
		return err
	}
	for _, n := range []int{1, 4} {
		eng, err := shard.New(n)
		if err != nil {
			return err
		}
		if err := load(eng); err != nil {
			return err
		}
		ms, got, err := perOp(eng.Run)
		if err != nil {
			return err
		}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("shard probe: %d shards answer %q with %d, the monolith with %d", n, reqs[i].Text, got[i], want[i])
			}
		}
		m.set(fmt.Sprintf("shard.run_ms_per_op.n%d", n), ms, "ms")
		if n == 1 {
			m.set("shard.overhead_ratio.n1", ms/monoMS, "ratio")
			continue
		}
		slowest, fastest := 0.0, 0.0
		for s := 0; s < n; s++ {
			sms, _, err := perOp(eng.Shard(s).Run)
			if err != nil {
				return err
			}
			if s == 0 || sms > slowest {
				slowest = sms
			}
			if s == 0 || sms < fastest {
				fastest = sms
			}
		}
		// What the engine adds to its slowest shard: goroutine fan-out, the
		// wait for a CPU, id translation and the merge.
		m.set("shard.merge_share.n4", (ms-slowest)/ms, "ratio")
		m.set("shard.skew.n4", (slowest-fastest)/slowest, "ratio")
	}
	return nil
}

// probeLoopback serves hot reads over a real loopback TCP connection and
// in-process, and reports what the kernel and net/http add per request.
func probeLoopback(m layerMetrics, e *setupEnv, h http.Handler) error {
	const ops = 3000
	w := respWriter{hdr: make(http.Header)}
	start := time.Now()
	for i := 0; i < ops; i++ {
		w.reset(false)
		h.ServeHTTP(&w, e.reads[i%len(e.reads)])
	}
	inProc := float64(time.Since(start)) / ops

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: h}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	client := &http.Client{}
	base := "http://" + ln.Addr().String()
	get := func(i int) error {
		resp, err := client.Get(base + e.reads[i%len(e.reads)].URL.String())
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("loopback probe: status %d", resp.StatusCode)
		}
		return err
	}
	for i := 0; i < 100 && err == nil; i++ { // connection set-up and warm-up
		err = get(i)
	}
	start = time.Now()
	for i := 0; i < ops && err == nil; i++ {
		err = get(i)
	}
	overTCP := float64(time.Since(start)) / ops
	client.CloseIdleConnections()
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	if serr := <-done; err == nil && serr != http.ErrServerClosed {
		err = serr
	}
	if err != nil {
		return err
	}
	m.set("net.loopback_extra_us_per_op", (overTCP-inProc)/1e3, "us")
	return nil
}

// runProbes runs every probe in a scratch directory of its own.
func runProbes(m layerMetrics, e *setupEnv, sz sizes) (evalProbe, error) {
	dir := filepath.Join(e.runDir, "probes")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return evalProbe{}, err
	}
	defer os.RemoveAll(dir)
	idx, err := dkindex.OpenFile(filepath.Join(e.inputs, indexFile))
	if err != nil {
		return evalProbe{}, err
	}
	if err := probeBuild(m, e); err != nil {
		return evalProbe{}, fmt.Errorf("build probe: %w", err)
	}
	if err := probeCodec(m, idx); err != nil {
		return evalProbe{}, fmt.Errorf("codec probe: %w", err)
	}
	if err := probeStore(m, e, dir); err != nil {
		return evalProbe{}, fmt.Errorf("store probe: %w", err)
	}
	ep, err := probeEval(m, idx, e.p.Plan)
	if err != nil {
		return evalProbe{}, err
	}
	if err := probeCache(m, e); err != nil {
		return evalProbe{}, err
	}
	if err := probeWrite(m, e, dir); err != nil {
		return evalProbe{}, fmt.Errorf("write probe: %w", err)
	}
	if err := probeShard(m, sz); err != nil {
		return evalProbe{}, err
	}
	return ep, nil
}
