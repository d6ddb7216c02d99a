// Command piscale runs canned or customised scenarios headless, as fast
// as the hardware allows: it builds the scenario's cloud, replays the
// whole fault-and-traffic timeline in virtual time, and prints the
// report. It is the scale-out workhorse behind the CI bench-smoke job and
// the quickest way to watch a 1000-node fleet survive a migration storm.
//
// Usage:
//
//	piscale -list
//	piscale -scenario migration-storm
//	piscale -scenario megafleet-1000 -trace 20
//	piscale -scenario megafleet-1000 -trace-out run.trace.json -metrics-dump
//	piscale -scenario megafleet-1000000 -serial-solve -eager-advance -classic-heap
//	piscale -scenario diurnal-day -racks 10 -hosts-per-rack 30 -duration 20m
//	piscale -scenario rack-blackout -checkpoint-at 45s
//	piscale -resume-from rack-blackout.ckpt.json
//	piscale -study bisect-blackout
//	piscale -scenario megafleet-fattree-100000 -no-route-synth
//	piscale -bench-json BENCH_PR10.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
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
	benchJSON := flag.String("bench-json", "", "run every canned scenario once and write the benchmark trajectory to FILE")
	traceOut := flag.String("trace-out", "", "write the run's kernel spans as Chrome trace-event JSON to FILE (Perfetto-loadable)")
	metricsDump := flag.Bool("metrics-dump", false, "print the final kernel metrics in Prometheus text format after the run")
	// The shared surface — fleet shape, fabric, sampling and the run-phase
	// kernel knobs (all modes byte-identical to the defaults; the
	// determinism gates prove it) — registers through cliconfig, so
	// piscale, picloud and piscaled parse identically.
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
	if *benchJSON != "" {
		if err := runBenchJSON(*benchJSON); err != nil {
			fmt.Fprintln(os.Stderr, "piscale:", err)
			os.Exit(1)
		}
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
		fmt.Fprintln(os.Stderr, "piscale: -scenario is required (or -list / -study / -resume-from / -bench-json)")
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

// beginObs attaches the optional observation channels to a run before
// it starts: the span tracer behind -trace-out, and the solver's phase
// profiler when -metrics-dump will want wall attribution. The
// zero-perturbation gate proves neither can change the run.
func beginObs(r *scenario.Run, o runOpts) *obs.Tracer {
	if o.metricsDump {
		r.Cloud.Net.EnableProfiling(true)
	}
	if o.traceOut == "" {
		return nil
	}
	tr := obs.NewTracer(obs.DefaultTraceCap)
	r.SetTracer(tr)
	return tr
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

// benchEntry is one scenario's row of the benchmark trajectory.
type benchEntry struct {
	Name        string  `json:"name"`
	Nodes       int     `json:"nodes"`
	Racks       int     `json:"racks,omitempty"`
	SimSeconds  float64 `json:"sim_s,omitempty"`
	WallSeconds float64 `json:"wall_s,omitempty"`
	// BuildSeconds is the fleet-construction wall time (cloud assembly
	// plus fleet spawn) — the series the PR 3 fleet builder moves.
	BuildSeconds float64 `json:"build_s,omitempty"`
	NsPerOp      int64   `json:"ns_per_op"`
	Events       uint64  `json:"events,omitempty"`
	EventsPerS   float64 `json:"events_per_s"`
	SimPerWall   float64 `json:"sim_s_per_wall_s"`
	TraceDigest  string  `json:"trace_digest,omitempty"`
	// FlushSeconds/SolveSeconds attribute run-phase wall time to the
	// network kernel's flush passes and to the congestion solver inside
	// them — the PR 8 phase profiler, enabled only for bench runs (the
	// zero-perturbation gate proves enabling it cannot change results).
	// wall_s - flush_s is scheduler+workload time; flush_s - solve_s is
	// domain bookkeeping around the solves.
	FlushSeconds float64 `json:"flush_s,omitempty"`
	SolveSeconds float64 `json:"solve_s,omitempty"`
	// MaxRSSBytes is the process's peak resident set size (getrusage
	// ru_maxrss) sampled as this arm finished. Peak RSS is monotone
	// over the process, so each row is the high-water mark so far.
	MaxRSSBytes uint64 `json:"max_rss_bytes,omitempty"`
	// RouteSynthHits/DijkstraFallbacks split cold-route work between
	// the structured synthesis and the full Dijkstra — the PR 10
	// cross-pod series. An all-links-up fat-tree run must show zero
	// fallbacks (asserted before the artifact is written).
	RouteSynthHits    uint64 `json:"route_synth_hits,omitempty"`
	DijkstraFallbacks uint64 `json:"dijkstra_fallbacks,omitempty"`
}

// schedulerSeriesScenarios are the megafleets the classic-vs-calendar
// scheduler comparison reruns: the scales where the event scheduler is
// a measurable share of the run phase.
var schedulerSeriesScenarios = []string{"megafleet-10000", "megafleet-100000", "megafleet-1000000"}

// schedEntry is one arm of the scheduler comparison series.
type schedEntry struct {
	benchEntry
	Scheduler string `json:"scheduler"`
}

// routeSynthSeriesScenarios is where cold-route cost is the dominant
// run-phase term: the k=74 fat-tree, whose gravity mix makes almost
// every cold pair cross-pod.
var routeSynthSeriesScenarios = []string{"megafleet-fattree-100000"}

// routeEntry is one arm of the synthesis-vs-Dijkstra routing series.
type routeEntry struct {
	benchEntry
	// Routes is "synth" (the default: structured synthesis with
	// Dijkstra fallback) or "dijkstra-only" (the -no-route-synth
	// ablation).
	Routes string `json:"routes"`
}

// runBenchJSON executes every canned scenario once (the calendar
// scheduler is the default), reruns the megafleets on the classic heap
// for the scheduler events/s series, reruns the 100k fat-tree with
// route synthesis ablated for the synthesis-vs-Dijkstra series, and
// writes the whole trajectory to path. The emitted series also records
// each arm's trace digest, so the artifact itself witnesses that every
// arm produced an identical run. Every arm runs with the network
// kernel's phase profiler on, so each row splits its run wall time
// into flush_s/solve_s.
func runBenchJSON(path string) error {
	type trajectory struct {
		GeneratedBy string       `json:"generated_by"`
		GoVersion   string       `json:"go_version"`
		GoosGoarch  string       `json:"goos_goarch"`
		Scenarios   []benchEntry `json:"scenarios"`
		// SchedulerSeries is the classic-vs-calendar events/s comparison
		// at 10k/100k/1M nodes.
		SchedulerSeries []schedEntry `json:"scheduler_series"`
		// RouteSynthSeries is the synthesis-vs-Dijkstra comparison on
		// the 100k-node fat-tree: the default arm (which must finish
		// with zero fallbacks) and the -no-route-synth ablation (every
		// cold route pays the full Dijkstra). Both digests are asserted
		// identical, and the synth arm is asserted faster than the
		// ablation, before the artifact is written.
		RouteSynthSeries []routeEntry `json:"route_synth_series"`
	}
	out := trajectory{
		GeneratedBy: "piscale -bench-json",
		GoVersion:   runtime.Version(),
		GoosGoarch:  runtime.GOOS + "/" + runtime.GOARCH,
	}
	execute := func(spec scenario.Spec) (benchEntry, error) {
		r, err := scenario.New(spec)
		if err != nil {
			return benchEntry{}, fmt.Errorf("scenario %s: %w", spec.Name, err)
		}
		defer r.Cloud.Close()
		// Phase profiling is on for every bench arm so each row carries
		// its flush/solve wall split; the digest cross-checks below (and
		// the zero-perturbation gate) prove it cannot change the run.
		r.Cloud.Net.EnableProfiling(true)
		rep, err := r.Execute()
		if err != nil {
			return benchEntry{}, fmt.Errorf("scenario %s: %w", spec.Name, err)
		}
		wall := rep.WallTime.Seconds()
		return benchEntry{
			Name:              rep.Name,
			Nodes:             rep.Nodes,
			Racks:             rep.Racks,
			SimSeconds:        rep.SimTime.Seconds(),
			WallSeconds:       wall,
			BuildSeconds:      rep.BuildWallTime.Seconds(),
			NsPerOp:           rep.WallTime.Nanoseconds(),
			Events:            rep.EventsFired,
			EventsPerS:        float64(rep.EventsFired) / wall,
			SimPerWall:        rep.SimTime.Seconds() / wall,
			TraceDigest:       rep.TraceDigest(),
			FlushSeconds:      rep.Metrics["phase_flush_wall_s"],
			SolveSeconds:      rep.Metrics["phase_solve_wall_s"],
			MaxRSSBytes:       maxRSSBytes(),
			RouteSynthHits:    uint64(rep.Metrics["route_synth_hits"]),
			DijkstraFallbacks: uint64(rep.Metrics["dijkstra_fallbacks"]),
		}, nil
	}
	calendar := map[string]benchEntry{}
	for _, n := range scenario.Names() {
		spec, err := scenario.Catalog(n)
		if err != nil {
			return err
		}
		e, err := execute(spec)
		if err != nil {
			return err
		}
		out.Scenarios = append(out.Scenarios, e)
		calendar[n] = e
		fmt.Printf("%-18s %7d nodes  built %6.2fs  %8.0f events/s  %9.1f sim-s/wall-s  flush %4.1f%%\n",
			e.Name, e.Nodes, e.BuildSeconds, e.EventsPerS, e.SimPerWall, 100*e.FlushSeconds/e.WallSeconds)
	}
	for _, n := range schedulerSeriesScenarios {
		spec, err := scenario.Catalog(n)
		if err != nil {
			return err
		}
		spec.Cloud.Kernel.ClassicHeap = true
		classic, err := execute(spec)
		if err != nil {
			return err
		}
		cal := calendar[n]
		if classic.TraceDigest != cal.TraceDigest {
			return fmt.Errorf("scenario %s: classic-heap trace digest %s differs from calendar %s",
				n, classic.TraceDigest, cal.TraceDigest)
		}
		out.SchedulerSeries = append(out.SchedulerSeries,
			schedEntry{benchEntry: cal, Scheduler: "calendar"},
			schedEntry{benchEntry: classic, Scheduler: "classic-heap"})
		fmt.Printf("%-18s classic-heap rerun: %8.0f events/s (calendar %8.0f), digests identical\n",
			n, classic.EventsPerS, cal.EventsPerS)
	}
	for _, n := range routeSynthSeriesScenarios {
		cal := calendar[n]
		// The headline claim first: the default arm settled every cold
		// route by synthesis. On an all-links-up fat-tree a single
		// fallback is a coverage bug, not noise.
		if cal.DijkstraFallbacks != 0 {
			return fmt.Errorf("scenario %s: %d Dijkstra fallbacks on an all-links-up fat-tree", n, cal.DijkstraFallbacks)
		}
		if cal.RouteSynthHits == 0 {
			return fmt.Errorf("scenario %s: route synthesis never engaged", n)
		}
		spec, err := scenario.Catalog(n)
		if err != nil {
			return err
		}
		spec.Cloud.Kernel.DisableRouteSynthesis = true
		ablated, err := execute(spec)
		if err != nil {
			return err
		}
		if ablated.TraceDigest != cal.TraceDigest {
			return fmt.Errorf("scenario %s: dijkstra-only trace digest %s differs from synth %s",
				n, ablated.TraceDigest, cal.TraceDigest)
		}
		if ablated.RouteSynthHits != 0 || ablated.DijkstraFallbacks == 0 {
			return fmt.Errorf("scenario %s: ablation arm did not disable synthesis (synth %d, dijkstra %d)",
				n, ablated.RouteSynthHits, ablated.DijkstraFallbacks)
		}
		if ablated.EventsPerS >= cal.EventsPerS {
			return fmt.Errorf("scenario %s: dijkstra-only arm (%0.f events/s) not slower than synthesis (%0.f events/s) — the optimisation claim failed",
				n, ablated.EventsPerS, cal.EventsPerS)
		}
		out.RouteSynthSeries = append(out.RouteSynthSeries,
			routeEntry{benchEntry: cal, Routes: "synth"},
			routeEntry{benchEntry: ablated, Routes: "dijkstra-only"})
		fmt.Printf("%-18s routes: synth %8.0f events/s (0 fallbacks), dijkstra-only %8.0f — digests identical\n",
			n, cal.EventsPerS, ablated.EventsPerS)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d scenarios, %d scheduler-series arms, %d route-series arms)\n",
		path, len(out.Scenarios), len(out.SchedulerSeries), len(out.RouteSynthSeries))
	return nil
}

// kernelModeLine renders the run header's scheduler/solver/advance/
// routing summary.
func kernelModeLine(c cliconfig.Common) string {
	scheduler := "calendar"
	if c.ClassicHeap {
		scheduler = "classic-heap"
	}
	solver := "parallel(auto)"
	switch {
	case c.SerialSolve:
		solver = "serial"
	case c.SolveWorkers > 0:
		solver = fmt.Sprintf("parallel(%d workers, forced)", c.SolveWorkers)
	}
	advance := "lazy"
	if c.EagerAdvance {
		advance = "eager"
	}
	routes := "synth+dijkstra"
	if c.NoRouteSynth {
		routes = "dijkstra-only"
	}
	return fmt.Sprintf("run-phase kernel: scheduler=%s solver=%s advance=%s routes=%s", scheduler, solver, advance, routes)
}

// specFor resolves a catalog scenario with the command-line overrides
// applied — shared by run, checkpointing and resume (a checkpoint file
// records exactly these overrides, so the resuming process rebuilds the
// identical spec).
func specFor(name string, o runOpts) (scenario.Spec, error) {
	return o.common.SpecRequest(name).Resolve()
}

// checkpointPayload is the on-disk checkpoint: the replay recipe (the
// scenario plus the overrides that shaped it — cliconfig's wire spec,
// the same decoding the session API speaks) and the captured
// cross-layer kernel fingerprint a resume must reproduce bit-for-bit.
// Construction snapshots are process-local; what crosses processes is
// the proof obligation.
type checkpointPayload struct {
	cliconfig.SpecRequest

	At           time.Duration `json:"at_ns"`
	KernelNow    int64         `json:"kernel_now_ns"`
	KernelSeq    uint64        `json:"kernel_seq"`
	KernelFired  uint64        `json:"kernel_fired"`
	KernelPend   int           `json:"kernel_pending"`
	KernelDigest string        `json:"kernel_digest"`
	TraceLen     int           `json:"trace_len"`
	TraceDigest  string        `json:"trace_digest"`
}

func run(name string, o runOpts) error {
	spec, err := specFor(name, o)
	if err != nil {
		return err
	}
	fmt.Printf("scenario %s: %d nodes, %v simulated\n%s\n",
		spec.Name, scenario.NodeCount(spec), spec.Duration, kernelModeLine(o.common))

	r, err := scenario.New(spec)
	if err != nil {
		return err
	}
	defer r.Cloud.Close()
	tr := beginObs(r, o)
	if !o.quiet {
		r.OnEvent = func(ev scenario.TraceEvent) { fmt.Println(ev) }
	}
	if o.checkpointAt > 0 {
		if err := r.RunTo(o.checkpointAt); err != nil {
			return err
		}
		chk := r.Checkpoint()
		st := chk.Core.State()
		payload := checkpointPayload{
			SpecRequest: o.common.SpecRequest(name),
			At:          chk.At,
			KernelNow:   int64(st.Now), KernelSeq: st.Seq, KernelFired: st.Fired,
			KernelPend: st.Pending, KernelDigest: st.Digest,
			TraceLen: chk.TraceLen, TraceDigest: chk.TraceDigest,
		}
		path := o.checkpointFile
		if path == "" {
			path = name + ".ckpt.json"
		}
		data, err := json.MarshalIndent(payload, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("checkpoint at %v written to %s (kernel digest %s)\n", chk.At, path, st.Digest)
	}
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

// resume rebuilds a checkpointed scenario, replays it to the capture
// instant, proves the restored kernel matches the recorded fingerprint
// byte-for-byte, and finishes the run.
func resume(path string, o runOpts) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var p checkpointPayload
	if err := json.Unmarshal(data, &p); err != nil {
		return fmt.Errorf("reading checkpoint %s: %w", path, err)
	}
	req := p.SpecRequest
	// Kernel knobs passed on the resume command line win over the
	// recorded ones: all four modes are byte-identical by construction,
	// so ablating the resume (e.g. -classic-heap) is safe and the
	// verification below still must pass.
	if o.common.ClassicHeap {
		req.ClassicHeap = true
	}
	if o.common.SerialSolve {
		req.SerialSolve = true
	}
	if o.common.EagerAdvance {
		req.EagerAdvance = true
	}
	if o.common.SolveWorkers > 0 {
		req.SolveWorkers = o.common.SolveWorkers
	}
	spec, err := req.Resolve()
	if err != nil {
		return err
	}
	fmt.Printf("resuming %s from %s: replaying to %v\n%s\n",
		spec.Name, path, p.At, kernelModeLine(cliconfig.Common{
			ClassicHeap: req.ClassicHeap, SerialSolve: req.SerialSolve,
			EagerAdvance: req.EagerAdvance, SolveWorkers: req.SolveWorkers,
		}))
	r, err := scenario.New(spec)
	if err != nil {
		return err
	}
	defer r.Cloud.Close()
	tr := beginObs(r, o)
	if err := r.RunTo(p.At); err != nil {
		return err
	}
	st := r.Cloud.KernelState()
	trace := r.Trace()
	switch {
	case st.Digest != p.KernelDigest || int64(st.Now) != p.KernelNow ||
		st.Seq != p.KernelSeq || st.Fired != p.KernelFired || st.Pending != p.KernelPend:
		return fmt.Errorf("kernel state at %v does not match the checkpoint: got now=%v seq=%d fired=%d pending=%d digest=%s, want now=%v seq=%d fired=%d pending=%d digest=%s",
			p.At, st.Now, st.Seq, st.Fired, st.Pending, st.Digest,
			time.Duration(p.KernelNow), p.KernelSeq, p.KernelFired, p.KernelPend, p.KernelDigest)
	case len(trace) != p.TraceLen || scenario.DigestTrace(trace) != p.TraceDigest:
		return fmt.Errorf("trace prefix at %v does not match the checkpoint (%d events, digest %s; want %d, %s)",
			p.At, len(trace), scenario.DigestTrace(trace), p.TraceLen, p.TraceDigest)
	}
	fmt.Printf("resume verified: kernel state at %v byte-identical to the checkpoint (digest %s)\n", p.At, st.Digest)
	if !o.quiet {
		r.OnEvent = func(ev scenario.TraceEvent) { fmt.Println(ev) }
	}
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
