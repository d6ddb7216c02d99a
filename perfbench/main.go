// Command perfbench is the repository's benchmark. It runs one named
// workload against the simulator's public Go API (core, scenario,
// session) for a fixed wall-time budget, one fresh child process per
// repetition, checks the outputs, and prints a human-readable report
// followed by one JSON result line:
//
//	perfbench --workload fattree-crosspod --seed 1 --seconds 40 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of untraced
// runs; with --trace 1 it carries the per-layer metrics of a separate
// traced run (plus untraced runs for the tracing overhead). README.md
// in this directory documents the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: fattree-crosspod, multiroot-churn or session-forks")
		seed    = flag.Int64("seed", defaultSeed, "workload seed, applied to the scenario's Cloud.Seed")
		seconds = flag.Int("seconds", 40, "wall-time budget for the repetitions")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics of untraced runs; 1: per-layer metrics of a traced run")
		tmpRoot = flag.String("tmp-root", ".bench_build/tmp", "directory for the session store's temporary data")
		child   = flag.Bool("child", false, "run one repetition in this process and print its result (used by the harness)")
		traced  = flag.Bool("traced", false, "with -child: run the traced repetition")
		tmpDir  = flag.String("tmp", "", "with -child: session store directory")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *child {
		res := runChild(w, w.full, *seed, *traced, *tmpDir)
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	h := harness{w: w, seed: *seed, seconds: *seconds, traced: *trace == 1, tmpRoot: *tmpRoot, out: os.Stdout}
	if err := h.run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
