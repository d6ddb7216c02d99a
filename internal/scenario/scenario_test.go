package scenario

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// shortSpec is a small mixed scenario used by the determinism tests:
// every fault type, every traffic source, 4×14 nodes, 90 s.
func shortSpec(seed int64) Spec {
	return Spec{
		Name:        "determinism-probe",
		Description: "all fault types at small scale",
		Cloud:       core.Config{Seed: seed},
		Duration:    90 * time.Second,
		SampleEvery: 15 * time.Second,
		Fleet:       FleetSpec{VMs: 12, Image: "webserver"},
		Traffic: TrafficSpec{
			OnOff:   &workload.OnOffConfig{Sources: 6},
			Gravity: &workload.GravityConfig{EpochSeconds: 20, FlowsPerEpoch: 8},
			Diurnal: &DiurnalConfig{Period: 90 * time.Second, Tick: 5 * time.Second},
		},
		Faults: []Fault{
			LinkFail{At: 20 * time.Second, Outage: 15 * time.Second},
			Degrade{At: 30 * time.Second, Outage: 20 * time.Second,
				Shaping: netsim.Shaping{CapacityScale: 0.5, Loss: 0.01}},
			MigrationStorm{At: 40 * time.Second, Moves: 6},
			NodeChurn{Start: 50 * time.Second, Every: 25 * time.Second, Outage: 20 * time.Second},
			RackFail{Rack: 3, At: 60 * time.Second, Outage: 20 * time.Second},
		},
	}
}

// traceString flattens a trace (and sampled metrics) for comparison.
func traceString(rep *Report) string {
	var b strings.Builder
	for _, ev := range rep.Trace {
		fmt.Fprintln(&b, ev.String())
	}
	for _, s := range rep.Samples {
		fmt.Fprintf(&b, "sample t=%v p=%.6f f=%d u=%.6f\n", s.At, s.PowerW, s.ActiveFlows, s.MaxLinkUtil)
	}
	return b.String()
}

func TestDeterminismSameSeed(t *testing.T) {
	a, err := Execute(shortSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute(shortSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := traceString(a), traceString(b)
	if ta != tb {
		la, lb := strings.Split(ta, "\n"), strings.Split(tb, "\n")
		for i := range la {
			if i >= len(lb) || la[i] != lb[i] {
				t.Fatalf("traces diverge at line %d:\n  run A: %q\n  run B: %q", i, la[i], lb[i])
			}
		}
		t.Fatalf("traces differ in length: %d vs %d lines", len(la), len(lb))
	}
	if a.EventsFired != b.EventsFired {
		t.Fatalf("event counts differ: %d vs %d", a.EventsFired, b.EventsFired)
	}
	for k, v := range a.Metrics {
		if b.Metrics[k] != v {
			t.Fatalf("metric %s differs: %v vs %v", k, v, b.Metrics[k])
		}
	}
}

func TestDeterminismDifferentSeeds(t *testing.T) {
	a, err := Execute(shortSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute(shortSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	if traceString(a) == traceString(b) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	cases := []Spec{
		{},          // no name
		{Name: "x"}, // no duration
		{Name: "x", Duration: time.Second, // storm without fleet
			Faults: []Fault{MigrationStorm{Moves: 2}}},
		{Name: "x", Duration: time.Second, // zero outage
			Faults: []Fault{LinkFail{At: 0}}},
		{Name: "x", Duration: time.Second, // loss ≥ 1
			Faults: []Fault{Degrade{Outage: time.Second, Shaping: netsim.Shaping{Loss: 1.5}}}},
	}
	for i, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted a bad spec", i)
		}
	}
}

// TestNodeChurnInjectIsBounded injects node-churn cadences that once
// hung the session daemon: an interval whose step past the horizon
// overflows (so the expansion never ended) and a one-nanosecond
// interval (one closure per nanosecond). Each must be answered at once
// — accepted with its real cycle count, or refused.
func TestNodeChurnInjectIsBounded(t *testing.T) {
	spec, err := Catalog("node-churn")
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Cloud.Close()
	cases := []struct {
		f      NodeChurn
		accept bool
	}{
		{NodeChurn{Start: spec.Duration, Every: math.MaxInt64, Outage: time.Second}, true},
		{NodeChurn{Start: 0, Every: 1, Outage: time.Second}, false},
		{NodeChurn{Start: -time.Second, Every: time.Second, Outage: time.Second}, false},
	}
	for _, c := range cases {
		pending := len(r.actions) - r.cursor
		done := make(chan error, 1)
		go func() { done <- r.Inject(c.f) }()
		select {
		case err := <-done:
			if (err == nil) != c.accept {
				t.Fatalf("Inject(%+v) = %v, want accepted=%v", c.f, err, c.accept)
			}
		case <-time.After(time.Second):
			// The expansion is still running and allocating: stop the
			// whole process rather than let it exhaust memory.
			panic(fmt.Sprintf("Inject(%+v) still running after 1s", c.f))
		}
		if c.accept {
			if got := len(r.actions) - r.cursor - pending; got != 1 {
				t.Fatalf("Inject(%+v) scheduled %d power cycles, want 1", c.f, got)
			}
		}
	}
}

// shrink returns a catalog spec cut down so the full end-to-end suite
// stays fast, while still crossing every fault's inject and recover
// edge. The megafleet fleet sizes come from shrinkForGate (shared with
// the kernel and solver gates); this adds duration cuts on top.
func shrink(s Spec) Spec {
	if s.Duration > 2*time.Minute {
		s.Duration = 2 * time.Minute
	}
	// The megafleets are exercised at full node count by the benchmarks;
	// end-to-end here runs cut-down fleets to keep `go test` snappy.
	s = shrinkForGate(s)
	switch s.Name {
	case "megafleet-1000":
		s.Cloud.Racks = 5
		s.Duration = time.Minute
	case "megafleet-10000":
		s.Duration = time.Minute
	case "megafleet-100000":
		s.Duration = 30 * time.Second
	case "megafleet-fattree-1000":
		// A capacity-filled k=8 fat-tree: same pair classes (cross-pod
		// included), no empty pods for the gravity mix to sample.
		s.Cloud.FatTreeK = 8
		s.Cloud.Racks = 8
		s.Cloud.HostsPerRack = 16
		s.Duration = time.Minute
	}
	return s
}

func TestCannedScenariosEndToEnd(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			spec, err := Catalog(name)
			if err != nil {
				t.Fatal(err)
			}
			spec = shrink(spec)
			rep, err := Execute(spec)
			if err != nil {
				t.Fatal(err)
			}
			if rep.SimTime < spec.Duration {
				t.Fatalf("run stopped early: %v < %v", rep.SimTime, spec.Duration)
			}
			if rep.EventsFired == 0 {
				t.Fatal("no events fired — scenario did nothing")
			}
			if len(rep.Samples) == 0 {
				t.Fatal("no metric samples recorded")
			}
			if len(spec.Faults) > 0 && rep.Metrics["faults_injected"] == 0 {
				t.Fatal("faults declared but none injected")
			}
			if rep.Metrics["power_w"] <= 0 {
				t.Fatalf("implausible power draw %v", rep.Metrics["power_w"])
			}
		})
	}
}

func TestCatalogNamesResolve(t *testing.T) {
	if len(Names()) < 6 {
		t.Fatalf("catalog has %d scenarios, want ≥ 6", len(Names()))
	}
	for _, n := range Names() {
		if _, err := Catalog(n); err != nil {
			t.Errorf("catalog name %s does not resolve: %v", n, err)
		}
	}
	if _, err := Catalog("no-such"); err == nil {
		t.Error("unknown name did not error")
	}
	if Describe() == "" {
		t.Error("Describe returned nothing")
	}
}

func TestInstallOnLiveCloud(t *testing.T) {
	cloud, err := core.New(core.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()
	spec, err := Catalog("brownout-fabric")
	if err != nil {
		t.Fatal(err)
	}
	spec.Duration = time.Minute
	var seen []TraceEvent
	r, err := Install(cloud, spec)
	if err != nil {
		t.Fatal(err)
	}
	r.OnEvent = func(ev TraceEvent) { seen = append(seen, ev) }
	rep, err := r.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) == 0 {
		t.Fatal("OnEvent observed nothing")
	}
	if rep.Nodes != 56 {
		t.Fatalf("installed on %d nodes, want 56", rep.Nodes)
	}
}

// fatTreeCrossPodSpec is a capacity-filled k=8 fat-tree under
// cross-pod-heavy traffic: a gravity matrix re-rolled every 5 s (most
// drawn pairs cross pods), Pareto ON/OFF sources, node churn, and a
// mid-run edge-uplink outage that prunes one pod's ECMP fan.
func fatTreeCrossPodSpec(seed int64) Spec {
	return Spec{
		Name:        fmt.Sprintf("fattree-cross-pod-fuzz-%d", seed),
		Description: "randomized cross-pod fat-tree traffic with faults",
		Cloud: core.Config{
			Racks: 8, HostsPerRack: 16, Seed: seed,
			Fabric: topology.FabricFatTree, FatTreeK: 8,
		},
		Duration:    90 * time.Second,
		SampleEvery: 10 * time.Second,
		Traffic: TrafficSpec{
			OnOff:   &workload.OnOffConfig{Sources: 24},
			Gravity: &workload.GravityConfig{EpochSeconds: 5, FlowsPerEpoch: 40},
		},
		Faults: []Fault{
			NodeChurn{Start: 10 * time.Second, Every: 15 * time.Second, Outage: 5 * time.Second},
			LinkFail{At: 30 * time.Second, Outage: 20 * time.Second},
		},
	}
}

// TestFatTreeCrossPodSynthesisCoversEveryRoute requires the cross-pod
// route synthesis to carry every cold route of a cross-pod-heavy
// fat-tree run: zero Dijkstra fallbacks, because the uplink outage
// prunes parent sets but never leaves the provable shape.
func TestFatTreeCrossPodSynthesisCoversEveryRoute(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rep, err := Execute(fatTreeCrossPodSpec(seed))
			if err != nil {
				t.Fatal(err)
			}
			if rep.EventsFired < 1000 {
				t.Fatalf("fat-tree cross-pod workload too small to gate on: %d events", rep.EventsFired)
			}
			if rep.Metrics["route_synth_hits"] == 0 {
				t.Fatal("route synthesis never engaged on a fat-tree run")
			}
			if fb := rep.Metrics["dijkstra_fallbacks"]; fb != 0 {
				t.Fatalf("%v Dijkstra fallbacks on a fat-tree run; cross-pod synthesis must cover every pair", fb)
			}
		})
	}
}
