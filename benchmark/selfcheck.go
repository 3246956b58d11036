package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// selfCheck is the benchmark measuring itself: every workload runs `runs`
// times per side, A and B alternating, both sides the same binary, every run
// a process and a seed of its own. For each run-level metric it prints the
// two medians, their relative difference, the interquartile spread of each
// side as a share of its median, and the bound. It fails when a difference
// exceeds its bound. A spread above a third of the bound is flagged: a metric
// that noisy cannot carry its bound and belongs with the per-layer metrics,
// where the timings without a bound are shown for the same reason. With
// -workload it checks that workload alone.
func selfCheck(only string, runs int, seed int64, seconds int, dir string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if runs < 4 {
		fmt.Fprintln(os.Stderr, "benchmark: -selfcheck needs -runs of at least 4")
		return 2
	}
	bad, noisy := 0, 0
	for _, w := range workloads {
		if only != "" && only != w.name {
			continue
		}
		sides := [2]map[string][]float64{{}, {}}
		fmt.Printf("%s: %d runs per side, seeds %d..%d, -seconds %d\n", w.name, runs, seed, seed+int64(2*runs)-1, seconds)
		fmt.Printf("  %4s %4s", "seed", "side")
		for _, name := range runLevel {
			fmt.Printf(" %15s", name)
		}
		fmt.Println()
		for i := 0; i < 2*runs; i++ {
			// A B B A A B B A ...: neither side always runs first.
			side := (i + 1) / 2 % 2
			res, err := runChild(exe, w.name, seed+int64(i), seconds, dir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s run %d: %v\n", w.name, i+1, err)
				return 1
			}
			if !res.Correct {
				fmt.Fprintf(os.Stderr, "benchmark: %s run %d: %d of %d ops failed\n", w.name, i+1, res.Failed, res.Attempted)
				return 1
			}
			fmt.Printf("  %4d %4c", seed+int64(i), 'A'+rune(side))
			for _, name := range runLevel {
				v := res.Metrics[name].Value
				sides[side][name] = append(sides[side][name], v)
				fmt.Printf(" %15.6g", v)
			}
			fmt.Println()
		}
		fmt.Printf("  %-16s %14s %14s %8s %9s %9s %6s\n", "metric", "median A", "median B", "diff", "spread A", "spread B", "bound")
		for _, name := range runLevel {
			def, bounded := findDef(name)
			a, b := sides[0][name], sides[1][name]
			ma, mb := median(a), median(b)
			// diff > 0 means B is worse than A.
			diff := (mb - ma) / ma
			if def.better == "higher" {
				diff = -diff
			}
			sa, sb := spread(a), spread(b)
			bound, note := "none", ""
			if bounded {
				bound = fmt.Sprintf("%.0f%%", 100*def.bound)
				if math.Abs(diff) > def.bound {
					note = "  DIFFERENCE EXCEEDS BOUND"
					bad++
				} else if math.Max(sa, sb) > def.bound/3 {
					note = "  spread above a third of the bound"
					noisy++
				}
			}
			fmt.Printf("  %-16s %14.6g %14.6g %+7.2f%% %8.2f%% %8.2f%% %6s%s\n",
				name, ma, mb, 100*diff, 100*sa, 100*sb, bound, note)
		}
	}
	if bad > 0 {
		fmt.Printf("selfcheck: %d differences exceed their bounds\n", bad)
		return 1
	}
	fmt.Printf("selfcheck: both sides agree within every bound; %d spreads above a third of their bound\n", noisy)
	return 0
}

// runChild runs one workload in a process of its own and parses its last
// line, which -all makes carry every run-level metric.
func runChild(exe, workload string, seed int64, seconds int, dir string) (*result, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0", "-all", "-dir", dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	out = bytes.TrimSpace(out)
	last := out[bytes.LastIndexByte(out, '\n')+1:]
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	return &res, nil
}
