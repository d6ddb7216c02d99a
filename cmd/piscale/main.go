// Command piscale runs canned or customised scenarios headless, as fast
// as the hardware allows: it builds the scenario's cloud, replays the
// whole fault-and-traffic timeline in virtual time, and prints the
// report. It is the scale-out workhorse behind the CI bench-smoke job and
// the quickest way to watch a 1000-node fleet survive a migration storm.
// Timing measurements belong to the separate perfbench harness, which
// runs every arm in a fresh process; the kernel's oracle twins are
// core.Config.Kernel only and have no flags here.
//
// Usage:
//
//	piscale -list
//	piscale -scenario migration-storm
//	piscale -scenario megafleet-1000 -trace 20
//	piscale -scenario megafleet-1000 -trace-out run.trace.json -metrics-dump
//	piscale -scenario diurnal-day -racks 10 -hosts-per-rack 30 -duration 20m
//	piscale -scenario rack-blackout -checkpoint-at 45s
//	piscale -resume-from rack-blackout.ckpt.json
//	piscale -study bisect-blackout
//	piscale -scenario megafleet-fattree-100000 -q -metrics-dump
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cliconfig"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scenario"
)

func main() {
	list := flag.Bool("list", false, "list canned scenarios and studies, then exit")
	name := flag.String("scenario", "", "canned scenario to run (see -list)")
	study := flag.String("study", "", "canned checkpoint study to run (see -list)")
	traceTail := flag.Int("trace", 0, "print the last N trace events")
	quiet := flag.Bool("q", false, "suppress live event streaming")
	traceOut := flag.String("trace-out", "", "write the run's kernel spans as Chrome trace-event JSON to FILE (Perfetto-loadable)")
	metricsDump := flag.Bool("metrics-dump", false, "print the final kernel metrics in Prometheus text format after the run")
	// The shared surface — fleet shape, fabric, seed, duration and
	// sampling — registers through cliconfig, so piscale, picloud and
	// piscaled parse identically.
	common := cliconfig.Common{Seed: -1}
	common.Register(flag.CommandLine)
	// Checkpointing: pause the run at an instant, record the cross-layer
	// kernel fingerprint to a file, continue; a later -resume-from run
	// replays to that instant and proves byte-identity before carrying on.
	checkpointAt := flag.Duration("checkpoint-at", 0, "pause the scenario at this offset and write a checkpoint file before continuing")
	checkpointFile := flag.String("checkpoint-file", "", "checkpoint file path (default <scenario>.ckpt.json)")
	resumeFrom := flag.String("resume-from", "", "resume a scenario from a checkpoint file, verifying the kernel fingerprint at the capture instant")
	flag.Parse()

	if *list {
		fmt.Print("canned scenarios:\n" + scenario.Describe())
		fmt.Print("checkpoint studies:\n" + scenario.DescribeStudies())
		return
	}
	if *study != "" {
		rep, err := scenario.RunStudy(*study)
		if err != nil {
			fmt.Fprintln(os.Stderr, "piscale:", err)
			os.Exit(1)
		}
		fmt.Print(rep.Table())
		return
	}
	opts := runOpts{
		common:    common,
		traceTail: *traceTail, quiet: *quiet,
		checkpointAt: *checkpointAt, checkpointFile: *checkpointFile,
		traceOut: *traceOut, metricsDump: *metricsDump,
	}
	if *resumeFrom != "" {
		if err := resume(*resumeFrom, opts); err != nil {
			fmt.Fprintln(os.Stderr, "piscale:", err)
			os.Exit(1)
		}
		return
	}
	if *name == "" {
		fmt.Fprintln(os.Stderr, "piscale: -scenario is required (or -list / -study / -resume-from)")
		os.Exit(2)
	}
	if err := run(*name, opts); err != nil {
		fmt.Fprintln(os.Stderr, "piscale:", err)
		os.Exit(1)
	}
}

// runOpts carries the command-line overrides into a scenario run: the
// shared cliconfig surface plus piscale's own knobs.
type runOpts struct {
	common         cliconfig.Common
	traceTail      int
	quiet          bool
	checkpointAt   time.Duration
	checkpointFile string
	traceOut       string
	metricsDump    bool
}

// newTracer returns the span tracer behind -trace-out, or nil.
func newTracer(o runOpts) *obs.Tracer {
	if o.traceOut == "" {
		return nil
	}
	return obs.NewTracer(obs.DefaultTraceCap)
}

// beginObs attaches the optional observation channels to a run: the
// span tracer, and the solver's phase profiler when -metrics-dump will
// want wall attribution. The zero-perturbation gate proves neither can
// change the run.
func beginObs(r *scenario.Run, o runOpts, tr *obs.Tracer) {
	if o.metricsDump {
		r.Cloud.Net.EnableProfiling(true)
	}
	r.SetTracer(tr)
}

// finishObs drains the observation channels after the run: the Chrome
// trace-event file and the Prometheus text dump of the final kernel
// stats.
func finishObs(r *scenario.Run, o runOpts, tr *obs.Tracer) error {
	if tr != nil {
		f, err := os.Create(o.traceOut)
		if err != nil {
			return err
		}
		if err := tr.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %d spans (%d dropped) to %s — open in Perfetto (ui.perfetto.dev) or chrome://tracing\n",
			tr.Len(), tr.Dropped(), o.traceOut)
	}
	if o.metricsDump {
		reg := obs.NewRegistry()
		ks := r.Cloud.KernelStats()
		reg.RegisterCollector(func(e *obs.Emitter) {
			core.CollectKernelStats(e, ks)
			if ks.Net.FlushWall > 0 {
				e.Gauge("pisim_phase_flush_wall_seconds", ks.Net.FlushWall.Seconds())
				e.Gauge("pisim_phase_solve_wall_seconds", ks.Net.SolveWall.Seconds())
			}
		})
		if err := reg.WritePrometheus(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

func run(name string, o runOpts) error {
	req := o.common.SpecRequest(name)
	spec, err := req.Resolve()
	if err != nil {
		return err
	}
	fmt.Printf("scenario %s: %d nodes, %v simulated\n",
		spec.Name, scenario.NodeCount(spec), spec.Duration)

	r, err := scenario.New(spec)
	if err != nil {
		return err
	}
	defer r.Cloud.Close()
	tr := newTracer(o)
	beginObs(r, o, tr)
	if !o.quiet {
		r.OnEvent = func(ev scenario.TraceEvent) { fmt.Println(ev) }
	}
	if o.checkpointAt > 0 {
		if err := r.RunTo(o.checkpointAt); err != nil {
			return err
		}
		file := cliconfig.NewCheckpointFile(req, r)
		path := o.checkpointFile
		if path == "" {
			path = name + ".ckpt.json"
		}
		data, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("checkpoint at %v written to %s (kernel digest %s)\n", file.At, path, file.KernelDigest)
	}
	return finish(r, o, tr)
}

// resume rebuilds a checkpointed scenario from its file — the same
// build, replay and stamp check every fork takes — and finishes the
// run.
func resume(path string, o runOpts) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	file, err := cliconfig.DecodeCheckpointFile(data)
	if err != nil {
		return fmt.Errorf("reading %s: %w", path, err)
	}
	chk, err := file.Checkpoint()
	if err != nil {
		return err
	}
	fmt.Printf("resuming %s from %s: replaying to %v\n", chk.Spec.Name, path, chk.At)
	tr := newTracer(o)
	r, err := chk.ForkTraced(tr)
	if err != nil {
		return err
	}
	defer r.Cloud.Close()
	beginObs(r, o, tr)
	fmt.Printf("resume verified: kernel state at %v byte-identical to the checkpoint (digest %s)\n", chk.At, chk.KernelDigest)
	if !o.quiet {
		r.OnEvent = func(ev scenario.TraceEvent) { fmt.Println(ev) }
	}
	return finish(r, o, tr)
}

// finish runs the rest of the timeline, prints the report and the
// requested trace tail, and drains the observation channels.
func finish(r *scenario.Run, o runOpts, tr *obs.Tracer) error {
	rep, err := r.Execute()
	if err != nil {
		return err
	}
	fmt.Print(rep.Table())
	if o.traceTail > 0 {
		tail := rep.Trace
		if len(tail) > o.traceTail {
			tail = tail[len(tail)-o.traceTail:]
		}
		fmt.Printf("last %d trace events:\n", len(tail))
		for _, ev := range tail {
			fmt.Println(" ", ev)
		}
	}
	return finishObs(r, o, tr)
}
