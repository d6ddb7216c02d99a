package main

import (
	"fmt"
	"time"

	"repro/internal/cliconfig"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sdn"
	"repro/internal/session"
	"repro/internal/store"
)

// childResult is what one child process reports: one repetition of a
// workload, untraced (end-to-end timings) or traced (per-layer figures).
type childResult struct {
	Traced bool `json:"traced"`

	SetupS float64 `json:"setup_s"`
	RunS   float64 `json:"run_s"`

	// Digest, Events and KernelDigest identify the run's output: the
	// trace digest, engine event count and final kernel state digest
	// (scenario workloads), or the trace digest, trace length and kernel
	// digest of the checkpoint every cycle reached (session-forks).
	Digest       string `json:"digest"`
	Events       uint64 `json:"events"`
	KernelDigest string `json:"kernel_digest,omitempty"`

	// Attempted counts operations (a run, or one fork, advance or
	// checkpoint); Failures lists every operation that erred or failed
	// an output check.
	Attempted int      `json:"attempted"`
	Failures  []string `json:"failures,omitempty"`

	// Per-operation wall times of session-forks cycles.
	ForkS       []float64 `json:"fork_s,omitempty"`
	AdvanceS    []float64 `json:"advance_s,omitempty"`
	CheckpointS []float64 `json:"checkpoint_s,omitempty"`

	// Layers holds the per-layer figures of a traced run.
	Layers map[string]float64 `json:"layers,omitempty"`
}

func (r *childResult) fail(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// runChild executes one repetition in this process.
func runChild(w workload, sh shape, seed int64, traced bool, tmpDir string) *childResult {
	res := &childResult{Traced: traced}
	if traced {
		res.Layers = map[string]float64{}
	}
	var err error
	if w.session {
		err = runSessionForks(res, w, sh, seed, tmpDir)
	} else {
		err = runScenario(res, w, sh, seed)
	}
	if err != nil {
		res.fail("%v", err)
	}
	return res
}

// runScenario builds the workload's cloud, installs the scenario and
// runs it to the horizon. Untraced, the run is one Execute call.
// Traced, it runs in fixed virtual-time RunTo slices with a span tracer
// and the flow solver's phase profiling on, then probes the layers.
func runScenario(res *childResult, w workload, sh shape, seed int64) error {
	res.Attempted = 1
	spec, err := w.spec(seed, sh)
	if err != nil {
		return err
	}
	rt0 := readRuntime()
	t0 := time.Now()
	cloud, err := core.New(spec.Cloud)
	if err != nil {
		return fmt.Errorf("core.New: %w", err)
	}
	defer cloud.Close()
	t1 := time.Now()
	run, err := scenario.Install(cloud, spec)
	if err != nil {
		return fmt.Errorf("scenario.Install: %w", err)
	}
	t2 := time.Now()
	res.SetupS = t2.Sub(t0).Seconds()

	var rep *scenario.Report
	var slices, power []float64
	if !res.Traced {
		if rep, err = run.Execute(); err != nil {
			return fmt.Errorf("Execute: %w", err)
		}
		res.RunS = time.Since(t2).Seconds()
	} else {
		run.SetTracer(obs.NewTracer(0))
		cloud.Net.EnableProfiling(true)
		step := spec.Duration / time.Duration(sh.slices)
		for k := 1; k <= sh.slices; k++ {
			ts := time.Now()
			if err := run.RunTo(time.Duration(k) * step); err != nil {
				return fmt.Errorf("RunTo: %w", err)
			}
			slices = append(slices, time.Since(ts).Seconds())
			tp := time.Now()
			cloud.PowerDraw()
			power = append(power, time.Since(tp).Seconds()*1e6)
		}
		ts := time.Now()
		if rep, err = run.Execute(); err != nil {
			return fmt.Errorf("Execute: %w", err)
		}
		res.RunS = sum(slices) + time.Since(ts).Seconds()
	}
	rt1 := readRuntime()
	res.Digest, res.Events = rep.TraceDigest(), rep.EventsFired
	res.KernelDigest = cloud.KernelState().Digest
	if w.name == "fattree-crosspod" {
		if fb := rep.Metrics["dijkstra_fallbacks"]; fb != 0 {
			res.fail("fattree-crosspod: %v Dijkstra fallbacks, want 0", fb)
		}
	}
	if !res.Traced {
		return nil
	}

	l := res.Layers
	l["fleet.cold_build_s"] = t1.Sub(t0).Seconds()
	l["pimaster.install_s"] = t2.Sub(t1).Seconds()
	l["scenario.slice_p50_s"] = quantile(slices, 0.5)
	l["scenario.slice_p90_s"] = quantile(slices, 0.9)
	l["energy.power_draw_us"] = median(power)
	l["workload.flows_done"] = rep.Metrics["onoff_flows_done"]
	addRuntimeDelta(l, rt0, rt1)
	addKernelCounters(l, cloud)
	l["sim.ns_per_event"] = res.RunS / float64(rep.EventsFired) * 1e9
	l["core.kernel_state_s"] = timeKernelState(cloud, 5)
	cold, warm, err := pathForProbe(cloud, seed, sh.pathPairs, synthTierMix(l))
	if err != nil {
		return fmt.Errorf("path probe: %w", err)
	}
	l["sdn.pathfor_cold_us"], l["sdn.pathfor_warm_us"] = cold, warm
	return nil
}

// synthTierMix is the run's cold routes per synthesis tier, in
// sdn.SynthTierNames order: the locality mix the PathFor probe
// reproduces.
func synthTierMix(l map[string]float64) []float64 {
	mix := make([]float64, len(sdn.SynthTierNames))
	for i, k := range sdn.SynthTierNames {
		mix[i] = l["sdn.synth_hits."+k]
	}
	return mix
}

// runSessionForks is the closed loop of one client on an in-process
// session manager with a durable store: create a base image (set-up),
// then per cycle fork a session from it, advance it by a fixed step,
// checkpoint it and close it. Every cycle's checkpoint must carry the
// same kernel and trace digests.
func runSessionForks(res *childResult, w workload, sh shape, seed int64, tmpDir string) error {
	req := cliconfig.SpecRequest{
		Scenario:     w.catalog,
		Seed:         &seed,
		Duration:     cliconfig.Duration(sh.horizon),
		Racks:        sh.racks,
		HostsPerRack: sh.hostsPerRack,
	}
	spec, err := req.Resolve()
	if err != nil {
		return err
	}
	var l map[string]float64
	var chk *scenario.Checkpoint
	if res.Traced {
		l = res.Layers
		// A cold build of the same shape, first in the process, gives the
		// build and install layers; everything after it is warm. Run to
		// the image offset, it gives the checkpoint forkProbe re-forks.
		t0 := time.Now()
		cloud, err := core.New(spec.Cloud)
		if err != nil {
			return fmt.Errorf("core.New: %w", err)
		}
		t1 := time.Now()
		run, err := scenario.Install(cloud, spec)
		l["fleet.cold_build_s"] = t1.Sub(t0).Seconds()
		l["pimaster.install_s"] = time.Since(t1).Seconds()
		if err == nil {
			if err = run.RunTo(sh.imageAt); err == nil {
				chk = run.Checkpoint()
			}
		}
		cloud.Close()
		if err != nil {
			return fmt.Errorf("probe build: %w", err)
		}
	}

	st, err := store.Open(tmpDir)
	if err != nil {
		return err
	}
	mgr := session.NewManager()
	defer mgr.Close()
	if _, err := mgr.Recover(st); err != nil {
		return fmt.Errorf("attach store: %w", err)
	}
	if res.Traced {
		mgr.SetTracer(obs.NewTracer(0))
	}
	rt0 := readRuntime()
	t0 := time.Now()
	res.Attempted++
	if _, err := mgr.CreateImage("base", req, sh.imageAt); err != nil {
		return fmt.Errorf("CreateImage: %w", err)
	}
	res.SetupS = time.Since(t0).Seconds()

	target := sh.imageAt + sh.step
	tc := time.Now()
	for i := 0; i < sh.cycles; i++ {
		if err := cycle(res, mgr, target); err != nil {
			res.fail("cycle %d: %v", i, err)
		}
	}
	res.RunS = time.Since(tc).Seconds()
	rt1 := readRuntime()
	if !res.Traced {
		return nil
	}

	addRuntimeDelta(l, rt0, rt1)
	l["session.fork_p50_s"] = quantile(res.ForkS, 0.5)
	l["session.fork_p90_s"] = quantile(res.ForkS, 0.9)
	l["session.advance_p50_s"] = quantile(res.AdvanceS, 0.5)
	l["session.checkpoint_p50_s"] = quantile(res.CheckpointS, 0.5)
	l["session.cycles_per_s"] = float64(sh.cycles) / res.RunS
	samples := mgr.Obs().Gather()
	l["session.advance_slice_p50_s"] = histQuantile(samples, "pisim_session_advance_slice_seconds", 0.5)
	l["store.journal_append_p50_s"] = histQuantile(samples, "pisim_journal_append_seconds", 0.5)
	l["store.journal_records"] = mgr.Metrics()["journal_records"]
	return forkProbe(res, chk, sh, seed)
}

// cycle runs one fork → advance → checkpoint → close and records each
// operation's wall time and the checkpoint's digests.
func cycle(res *childResult, mgr *session.Manager, target time.Duration) error {
	res.Attempted += 3
	t := time.Now()
	s, err := mgr.CreateSession("base", nil)
	if err != nil {
		return fmt.Errorf("fork: %w", err)
	}
	defer s.Close()
	res.ForkS = append(res.ForkS, time.Since(t).Seconds())
	t = time.Now()
	if err := s.Advance(target); err != nil {
		return fmt.Errorf("advance: %w", err)
	}
	res.AdvanceS = append(res.AdvanceS, time.Since(t).Seconds())
	t = time.Now()
	info, err := s.Checkpoint("")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	res.CheckpointS = append(res.CheckpointS, time.Since(t).Seconds())
	switch {
	case info.At != target:
		return fmt.Errorf("checkpoint at %v, want %v", info.At, target)
	case res.KernelDigest == "":
		res.KernelDigest, res.Digest, res.Events = info.KernelDigest, info.TraceDigest, uint64(info.TraceLen)
	case info.KernelDigest != res.KernelDigest || info.TraceDigest != res.Digest:
		return fmt.Errorf("checkpoint digests %s/%s differ from the first cycle's %s/%s",
			info.KernelDigest, info.TraceDigest, res.KernelDigest, res.Digest)
	}
	return nil
}

// forkProbe re-forks a checkpoint at the image offset with a span
// tracer attached, splitting each fork's wall time into the existing
// "fork-reenact" span (replay to the offset) and the rest (the fleet's
// warm restore). Each fork then advances the cycle's step in 1 s RunTo
// slices, and the last one gives the kernel counters and probes.
func forkProbe(res *childResult, chk *scenario.Checkpoint, sh shape, seed int64) error {
	l := res.Layers
	var restore, reenact, slices, power []float64
	for i := 0; i < sh.forkProbes; i++ {
		tr := obs.NewTracer(0)
		t := time.Now()
		r, err := chk.ForkTraced(tr)
		if err != nil {
			return fmt.Errorf("ForkTraced: %w", err)
		}
		wall := time.Since(t).Seconds()
		span := 0.0
		for _, s := range tr.Spans() {
			if s.Name == "fork-reenact" {
				span = s.WallDur.Seconds()
			}
		}
		restore, reenact = append(restore, wall-span), append(reenact, span)
		r.Cloud.Net.EnableProfiling(true)
		firedBefore := r.Cloud.KernelStats().Sched.Fired
		advanceS := 0.0
		for off := sh.imageAt + time.Second; off <= sh.imageAt+sh.step; off += time.Second {
			ts := time.Now()
			if err := r.RunTo(off); err != nil {
				r.Cloud.Close()
				return fmt.Errorf("RunTo: %w", err)
			}
			slices = append(slices, time.Since(ts).Seconds())
			advanceS += slices[len(slices)-1]
			tp := time.Now()
			r.Cloud.PowerDraw()
			power = append(power, time.Since(tp).Seconds()*1e6)
		}
		if i == sh.forkProbes-1 {
			addKernelCounters(l, r.Cloud)
			fired := l["sim.events_fired"] - float64(firedBefore)
			l["sim.ns_per_event"] = advanceS / fired * 1e9
			l["workload.flows_done"] = r.Report().Metrics["onoff_flows_done"]
			l["core.kernel_state_s"] = timeKernelState(r.Cloud, 5)
			cold, warm, err := pathForProbe(r.Cloud, seed, sh.pathPairs, synthTierMix(l))
			if err != nil {
				r.Cloud.Close()
				return fmt.Errorf("path probe: %w", err)
			}
			l["sdn.pathfor_cold_us"], l["sdn.pathfor_warm_us"] = cold, warm
		}
		r.Cloud.Close()
	}
	l["fleet.warm_restore_s"] = median(restore)
	l["core.fork_reenact_s"] = median(reenact)
	l["scenario.slice_p50_s"] = quantile(slices, 0.5)
	l["scenario.slice_p90_s"] = quantile(slices, 0.9)
	l["energy.power_draw_us"] = median(power)
	return nil
}

// histQuantile estimates a quantile of every series of a histogram
// summed together (one series per session), interpolating linearly
// inside the bucket that holds it — the resolution the program's
// histograms expose.
func histQuantile(samples []obs.Sample, name string, q float64) float64 {
	var bounds []float64
	var cum []uint64
	var total uint64
	for _, s := range samples {
		if s.Name != name || s.Kind != obs.KindHistogram {
			continue
		}
		if cum == nil {
			bounds, cum = s.Bounds, make([]uint64, len(s.Cum))
		}
		for i, c := range s.Cum {
			cum[i] += c
		}
		total += s.Count
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	lo, below := 0.0, uint64(0)
	for i, c := range cum {
		if i >= len(bounds) {
			break
		}
		if float64(c) >= rank {
			return lo + (bounds[i]-lo)*(rank-float64(below))/float64(c-below)
		}
		lo, below = bounds[i], c
	}
	return lo
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
