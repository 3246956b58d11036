// Command benchmark is the repository's one benchmark: it drives the real
// serving path, server.New(idx).ServeHTTP, from one goroutine of its own
// process over a fixed, seeded op list cut into rounds, and reduces every
// timing across the rounds of a run. README.md in this directory explains the
// workloads, the metrics and why the runs are shaped the way they are.
//
//	benchmark -workload read_cold -seed 1 -seconds 12 -trace 0
//	benchmark -workload read_cold -seed 1 -trace 1    # per-layer metrics
//	benchmark -selfcheck                              # A/A runs of every workload
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 12

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name      = flag.String("workload", "", "workload to run: read_cold, read_hot, write_durable or mixed_rw")
		seed      = flag.Int64("seed", 1, "seed of the op list: shuffles, edge and document order (never the dataset)")
		seconds   = flag.Int("seconds", defaultSeconds, "size of the measured phase: one round of fixed work per 1.5 s, at least 6 rounds; never a deadline")
		trace     = flag.Int("trace", 0, "1 also replays the first rounds of every workload with spans, runs the layer probes and reports the per-layer metrics")
		dir       = flag.String("dir", "", "directory for the prepared inputs, each run's store directories and trace.jsonl (default .bench_build/data)")
		smoke     = flag.Bool("smoke", false, "tiny sizes (scale 0.05, 2 rounds), for tests")
		selfcheck = flag.Bool("selfcheck", false, "run every workload -runs times per side, alternating, and compare the two sides")
		runs      = flag.Int("runs", 10, "runs per side and workload for -selfcheck")
		all       = flag.Bool("all", false, "the result line of a -trace 0 run carries all seven run-level metrics, also those without a bound (-selfcheck runs its children so)")
		manifest  = flag.Bool("manifest", false, "print BENCHMARK.json as the metric tables define it and exit")
		prep      = flag.String("prepare", "", "internal: write the prepared inputs into this directory and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	if *manifest {
		os.Stdout.Write(manifestJSON())
		return 0
	}
	sz := fullSizes
	if *smoke {
		sz = smokeSizes
	}
	if *prep != "" {
		if err := prepare(*prep, sz); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: prepare:", err)
			return 1
		}
		return 0
	}
	if *dir == "" {
		*dir = ".bench_build/data"
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if *selfcheck {
		return selfCheck(*name, *runs, *seed, *seconds, *dir)
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	cfg := runConfig{
		w: w, seed: *seed, seconds: *seconds, trace: *trace != 0, dir: *dir, sz: sz,
		prepare: prepareInChild, out: os.Stdout,
	}
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	for _, line := range formatMetrics(res.Metrics) {
		fmt.Println(line)
	}
	if !cfg.trace && !*all {
		// The result line carries exactly the metrics BENCHMARK.json lists for
		// this kind of run.
		for name := range res.Metrics {
			if _, bounded := findDef(name); !bounded {
				delete(res.Metrics, name)
			}
		}
	}
	last, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(last))
	if !res.Correct {
		return 1
	}
	return 0
}

// prepareInChild runs preparation in a process of its own, so none of its
// memory is the measuring process's.
func prepareInChild(dir string, sz sizes) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, "-prepare", dir, "-smoke="+strconv.FormatBool(sz.smoke))
	cmd.Stderr = os.Stderr
	return cmd.Run()
}

// formatMetrics renders the metrics one per line, by name; a per-layer metric
// is followed by what it should move.
func formatMetrics(m map[string]metric) []string {
	moves := make(map[string]string, len(perLayer))
	for _, def := range perLayer {
		moves[def.name] = def.moves
	}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	lines := make([]string, len(names))
	for i, name := range names {
		lines[i] = fmt.Sprintf("%-40s %14.6g %s", name, m[name].Value, m[name].Unit)
		if mv := moves[name]; mv != "" {
			lines[i] += "   -> " + mv
		}
	}
	return lines
}
