package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"time"

	"dkindex"
	"dkindex/internal/graph"
)

// tracedRounds is how many rounds of each workload the traced run replays.
const tracedRounds = 3

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is one invocation of the benchmark.
type runConfig struct {
	w       *workload
	seed    int64
	seconds int
	trace   bool
	dir     string // holds the shared inputs and a scratch subdirectory per run
	sz      sizes
	// prepare fills the inputs directory. main runs it in a child process;
	// the tests call it in-process.
	prepare func(dir string, sz sizes) error
	out     io.Writer // the human-readable report
}

// run is one execution of one workload: prepare, set up, verify, warm up,
// measure, check, set up again, report.
type run struct {
	cfg runConfig
	env setupEnv
	ops *opList

	setups    []float64 // seconds, one per complete set-up
	attempted int
	failed    int
	problems  []string // what went wrong, for the report
	opsSum    uint64   // op-list fingerprint after the measured rounds
	nextDir   int

	clock time.Time // start of the current part of the run
	laps  []string  // what each part took, for the report
}

// lap closes the current part of the run: the report says where a run's wall
// time went, measured or not.
func (r *run) lap(part string) {
	now := time.Now()
	r.laps = append(r.laps, fmt.Sprintf("%s=%.2f", part, now.Sub(r.clock).Seconds()))
	r.clock = now
}

// fail counts n failed ops or checks and keeps the first few explanations.
func (r *run) fail(n int, format string, args ...any) {
	r.failed += n
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// check counts one verification step.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(1, format, args...)
	}
}

// setUp performs one complete set-up of workload w in a fresh directory and
// returns it with the seconds it took.
func (r *run) setUp(w *workload, env *setupEnv) (*target, float64, error) {
	r.nextDir++
	env.dir = filepath.Join(env.runDir, fmt.Sprintf("setup-%d", r.nextDir))
	if w.stage != nil {
		if err := w.stage(env); err != nil {
			return nil, 0, fmt.Errorf("staging %s: %w", w.name, err)
		}
	}
	start := time.Now()
	t, err := w.setup(env)
	if err != nil {
		return nil, 0, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	return t, time.Since(start).Seconds(), nil
}

// timedSetUp is a set-up that counts towards setup_s.
func (r *run) timedSetUp() (*target, error) {
	t, s, err := r.setUp(r.cfg.w, &r.env)
	if err != nil {
		return nil, err
	}
	r.setups = append(r.setups, s)
	return t, nil
}

// tearDown closes a set-up and removes its directory.
func (r *run) tearDown(t *target) error {
	err := t.close()
	if t.dir != "" {
		if rerr := os.RemoveAll(t.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// oracleWants evaluates every plan op on g without any index.
func oracleWants(g *graph.Graph, plan []planOp) ([]int, error) {
	want := make([]int, len(plan))
	for i, op := range plan {
		n, err := oracleCount(g, op.Kind, op.Query)
		if err != nil {
			return nil, fmt.Errorf("oracle %s %q: %w", op.Kind, op.Query, err)
		}
		want[i] = n
	}
	return want, nil
}

// verify is the untimed correctness pass: every plan op, served and
// decoded, against the index-free oracle. A pristine index is checked against
// the counts preparation took on its own copy of the data graph; an index
// that has absorbed writes against the oracle on its current data graph.
func (r *run) verify(d *driver, t *target, w *workload, pristine bool) error {
	want := make([]int, len(r.env.p.Plan))
	if pristine {
		for i, op := range r.env.p.Plan {
			want[i] = op.Want
		}
	} else {
		var err error
		if want, err = oracleWants(t.idx.Graph(), r.env.p.Plan); err != nil {
			return err
		}
	}
	attempted, failed, first := d.verifyPlan(want, w.readOnly)
	r.attempted += attempted
	if failed > 0 {
		r.fail(failed, "%s verification: %d of %d plan ops wrong, first: %v", w.name, failed, attempted, first)
	}
	return nil
}

// checkSetUp is the correctness pass right after a set-up: a recovered store
// must digest like the one preparation closed, and every plan op must answer
// what the oracle says.
func (r *run) checkSetUp(d *driver, t *target, w *workload) error {
	if !w.pristine {
		got, err := digest(t.idx)
		if err != nil {
			return err
		}
		r.check(reflect.DeepEqual(got, r.env.p.Store), "recovered store digests %+v, prepared one %+v", got, r.env.p.Store)
	}
	return r.verify(d, t, w, w.pristine)
}

// phase is what a sequence of measured rounds adds up to.
type phase struct {
	rounds []roundStat
}

func (p *phase) ops() (n int) {
	for _, s := range p.rounds {
		n += s.ops
	}
	return n
}

// perRound maps every round through f.
func (p *phase) perRound(f func(roundStat) float64) []float64 {
	out := make([]float64, len(p.rounds))
	for i, s := range p.rounds {
		out[i] = f(s)
	}
	return out
}

// The per-round numbers a phase is reduced from: each metric is the median of
// one of them across the rounds.
func roundRPS(s roundStat) float64   { return float64(s.ops) / (float64(s.wallNS) / 1e9) }
func roundP50MS(s roundStat) float64 { return float64(s.p50) / 1e6 }
func roundP90MS(s roundStat) float64 { return float64(s.p90) / 1e6 }
func roundCPUMS(s roundStat) float64 { return float64(s.cpuNS) / 1e6 / float64(s.ops) }

// runRounds runs n rounds of the op list on d. With checkpoint set the store
// is checkpointed after every round, outside the round's clock; the
// checkpoints' milliseconds are returned.
func (r *run) runRounds(d *driver, t *target, ops *opList, n int, checkpoint bool, what string) (phase, []float64, error) {
	var ph phase
	var ckptMS []float64
	for i := 0; i < n; i++ {
		st := d.runRound(ops.round())
		r.attempted += st.ops
		if st.failed > 0 {
			r.fail(st.failed, "%s %d: %d of %d ops failed", what, i+1, st.failed, st.ops)
		}
		ph.rounds = append(ph.rounds, st)
		if checkpoint {
			start := time.Now()
			if err := t.store.Checkpoint(); err != nil {
				return ph, nil, err
			}
			ckptMS = append(ckptMS, float64(time.Since(start))/1e6)
		}
	}
	return ph, ckptMS, nil
}

// rssPeakMB reads the process's resident-set high-water mark.
func rssPeakMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// reopenCheck is write_durable's last word: a checkpoint, four more batches,
// close, recover the directory, and the recovered index must digest like the
// one that was closed.
func (r *run) reopenCheck(d *driver, t *target) error {
	if err := t.store.Checkpoint(); err != nil {
		return err
	}
	extra := r.ops.round()
	for i := 0; i < 4; i++ {
		d.serve(mutateRequest(extra.bodies[i]), true)
		r.check(d.opOK(-1), "extra batch %d before reopening: status %d %s", i+1, d.w.status, d.w.body)
	}
	before, err := digest(t.idx)
	if err != nil {
		return err
	}
	if err := t.close(); err != nil {
		return err
	}
	store, rep, err := dkindex.OpenStore(t.dir, r.env.storeOptions())
	if err != nil {
		return fmt.Errorf("reopening the store: %w", err)
	}
	after, err := digest(store.Index())
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	r.check(rep.Replayed == 4*mutationsPerBatch, "reopening replayed %d records, want %d", rep.Replayed, 4*mutationsPerBatch)
	r.check(reflect.DeepEqual(after, before), "reopened store digests %+v, closed one %+v", after, before)
	return nil
}

// execute runs the workload end to end, untraced, and returns the seven
// run-level metrics.
func (r *run) execute() (map[string]metric, error) {
	w, out := r.cfg.w, r.cfg.out
	t, err := r.timedSetUp()
	if err != nil {
		return nil, err
	}
	d := newDriver(t.h, nil, r.env.p.Plan, r.env.reads)
	if err := r.checkSetUp(d, t, w); err != nil {
		return nil, err
	}
	r.lap("set-up+verify")

	if _, _, err := r.runRounds(d, t, r.ops, 1, w.checkpoint, "warm-up round"); err != nil {
		return nil, err
	}
	r.lap("warm-up")
	n := roundsFor(r.cfg.seconds, r.cfg.sz)
	ph, ckptMS, err := r.runRounds(d, t, r.ops, n, w.checkpoint, "round")
	if err != nil {
		return nil, err
	}
	r.opsSum = r.ops.sum.Sum64()
	rss, err := rssPeakMB()
	if err != nil {
		return nil, err
	}
	r.lap("rounds")

	// From here on nothing is measured but set-up time.
	if !w.readOnly {
		if err := r.verify(d, t, w, false); err != nil {
			return nil, err
		}
	}
	if w.name == "write_durable" {
		if err := r.reopenCheck(d, t); err != nil {
			return nil, err
		}
	}
	if err := r.tearDown(t); err != nil {
		return nil, err
	}
	r.lap("checks")
	for len(r.setups) < setupsPerRun {
		t, err := r.timedSetUp()
		if err != nil {
			return nil, err
		}
		if err := r.tearDown(t); err != nil {
			return nil, err
		}
	}

	r.lap("more-set-ups")

	var alloc float64
	for _, s := range ph.rounds {
		alloc += float64(s.allocBytes)
	}
	m := map[string]metric{
		"setup_s":         {median(r.setups), "s"},
		"op_rps":          {median(ph.perRound(roundRPS)), "1/s"},
		"op_p50_ms":       {median(ph.perRound(roundP50MS)), "ms"},
		"op_p90_ms":       {median(ph.perRound(roundP90MS)), "ms"},
		"cpu_ms_per_op":   {median(ph.perRound(roundCPUMS)), "ms"},
		"alloc_kb_per_op": {alloc / float64(ph.ops()) / 1e3, "kB"},
		"rss_peak_mb":     {rss, "MB"},
	}

	perRound := ph.rounds[0].ops
	fmt.Fprintf(out, "rounds: %d x %d ops = %d timed ops after 1 warm-up round; every timing is the median across rounds;\n",
		n, perRound, ph.ops())
	fmt.Fprintf(out, "p50/p90 are per-round percentiles of %d samples, %d samples beyond each round's p90\n",
		perRound, perRound-int(math.Ceil(0.90*float64(perRound))))
	for _, col := range []struct {
		name string
		vals []float64
	}{
		{"round op/s:", ph.perRound(roundRPS)},
		{"round p50 ms:", ph.perRound(roundP50MS)},
		{"round p90 ms:", ph.perRound(roundP90MS)},
		{"round cpu ms/op:", ph.perRound(roundCPUMS)},
		{"round alloc kB/op:", ph.perRound(func(s roundStat) float64 { return float64(s.allocBytes) / 1e3 / float64(s.ops) })},
		{"round gc cycles:", ph.perRound(func(s roundStat) float64 { return float64(s.gcCycles) })},
		{"checkpoints ms:", ckptMS},
		{"set-ups s:", r.setups},
	} {
		if len(col.vals) == 0 {
			continue
		}
		fmt.Fprint(out, col.name)
		for _, v := range col.vals {
			fmt.Fprintf(out, " %.4g", v)
		}
		fmt.Fprintln(out)
	}
	return m, nil
}

// preparedInputs returns the directory holding the prepared inputs, filling it
// first if this is the first run in cfg.dir. The inputs depend on the size
// alone, never on the seed or the workload, so the runs of one checkout share
// them: at 92 runs in a session, preparing afresh every time would take a
// twentieth of the time the builder's contract allows for all of them.
func preparedInputs(cfg *runConfig) (string, error) {
	dir := filepath.Join(cfg.dir, fmt.Sprintf("inputs-%g", cfg.sz.scale))
	if p, err := loadPrepared(dir); err == nil && p.Version == prepVersion {
		return dir, nil
	}
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	// Prepared beside its final place and renamed, so that a run that is
	// killed half-way never leaves inputs another run would trust.
	tmp := fmt.Sprintf("%s.tmp-%d", dir, os.Getpid())
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	defer os.RemoveAll(tmp)
	if err := cfg.prepare(tmp, cfg.sz); err != nil {
		return "", err
	}
	return dir, os.Rename(tmp, dir)
}

// runWorkload is one invocation: it owns the run directory and prints the
// report and, last, the result line.
func runWorkload(cfg runConfig) (*result, error) {
	start := time.Now()
	inputs, err := preparedInputs(&cfg)
	if err != nil {
		return nil, fmt.Errorf("preparing inputs: %w", err)
	}
	runDir := filepath.Join(cfg.dir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	p, err := loadPrepared(inputs)
	if err != nil {
		return nil, err
	}
	xml, err := os.ReadFile(filepath.Join(inputs, xmlFile))
	if err != nil {
		return nil, err
	}
	reads, err := readRequests(p.Plan)
	if err != nil {
		return nil, err
	}
	r := &run{cfg: cfg, env: setupEnv{inputs: inputs, runDir: runDir, p: p, xml: xml, reads: reads}, clock: start}
	r.ops = cfg.w.ops(p, cfg.sz, cfg.seed)
	r.lap("prepare")

	var m map[string]metric
	if cfg.trace {
		m, err = r.executeTraced()
	} else {
		m, err = r.execute()
	}
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(cfg.out, "wall s:", strings.Join(r.laps, " "))
	printEnv(cfg.out, &cfg, p, r.opsSum)
	for _, msg := range r.problems {
		fmt.Fprintln(cfg.out, "FAILED:", msg)
	}
	return &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}, nil
}
