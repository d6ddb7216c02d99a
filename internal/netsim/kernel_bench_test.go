package netsim

// Microbenchmarks for the run-phase kernel refactor.
//
//   - BenchmarkAdvance pits the lazy accounting against the eager
//     whole-fleet sweep on a fabric where one rack churns and the other
//     racks idle: the sweep pays O(live flows) at every churn instant,
//     the lazy mode pays only for the rack that changed.
//
//   - BenchmarkParallelSolve measures a flush that dirties every rack
//     domain at once, serial vs forced-parallel, across domain sizes.
//     Fan-out buys wall time only when the flush carries enough flows
//     (roughly the parallelSolveMinFlows threshold at GOMAXPROCS > 1;
//     on a single-core box it proves the pool costs little).
//
// Run with: go test -bench='Advance|ParallelSolve' -benchtime=... ./internal/netsim

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
)

// buildLoadedRig wires racks×hostsPerRack hosts and starts one
// unbounded flow from every host to its rack's first host, so each
// rack's flows share the sink link and form one congestion domain of
// hostsPerRack-1 flows. Staggered rate caps force the progressive fill
// through several freeze rounds per solve.
func buildLoadedRig(b *testing.B, e *sim.Engine, racks, hostsPerRack int, mode func(*Network)) *diffRig {
	b.Helper()
	rig := buildDiffRig(b, e, racks, hostsPerRack, 2)
	if mode != nil {
		mode(rig.n)
	}
	for r := 0; r < racks; r++ {
		sink := rig.racks[r][0]
		for h := 1; h < hostsPerRack; h++ {
			src := rig.racks[r][h]
			if _, err := rig.n.StartFlow(FlowSpec{
				Src: src, Dst: sink, Path: []NodeID{src, rig.tors[r], sink},
				RateCapBps: float64(h%7+1) * mbps / 8,
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
	rig.n.flush()
	return rig
}

// benchAdvance drives churn in rack 0 while every other rack idles.
func benchAdvance(b *testing.B, eager bool) {
	e := sim.NewEngine(1)
	rig := buildLoadedRig(b, e, 16, 64, func(n *Network) { n.SetKernelMode(KernelMode{EagerAdvance: eager}) })
	n := rig.n
	src, tor, dst := rig.racks[0][0], rig.tors[0], rig.racks[0][2]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := n.StartFlow(FlowSpec{
			Src: src, Dst: dst, Path: []NodeID{src, tor, dst},
			SizeBits: mbps / 10,
		})
		if err != nil {
			b.Fatal(err)
		}
		// Advance far enough that the transfer completes: every
		// iteration is one time-advancing churn instant, which the
		// eager mode answers with a whole-fleet sweep.
		if err := e.RunFor(50 * time.Millisecond); err != nil {
			b.Fatal(err)
		}
		if ended, _ := f.Ended(); !ended {
			b.Fatal("churn flow did not complete")
		}
	}
}

func BenchmarkAdvanceLazy(b *testing.B)  { benchAdvance(b, false) }
func BenchmarkAdvanceEager(b *testing.B) { benchAdvance(b, true) }

// benchParallelSolve dirties every rack domain at one instant (a
// fabric-wide shaping flap) and measures the flush.
func benchParallelSolve(b *testing.B, racks, hostsPerRack int, serial bool) {
	e := sim.NewEngine(1)
	rig := buildLoadedRig(b, e, racks, hostsPerRack, func(n *Network) {
		if serial {
			n.SetKernelMode(KernelMode{SerialSolve: true})
		} else {
			// Forced pool, so the small shapes exercise fan-out too
			// (auto mode would keep them under the work threshold).
			n.SetKernelMode(KernelMode{SolveWorkers: 4})
		}
	})
	n := rig.n
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Dirty every rack's domain: shape each rack's first host link.
		for r := 0; r < racks; r++ {
			scale := 0.5
			if i%2 == 1 {
				scale = 0.9
			}
			if err := n.ShapeLink(rig.racks[r][0], rig.tors[r], Shaping{CapacityScale: scale}); err != nil {
				b.Fatal(err)
			}
		}
		n.flush()
	}
	b.ReportMetric(float64(racks*(hostsPerRack/2)), "flows")
}

func BenchmarkParallelSolve(b *testing.B) {
	for _, shape := range []struct{ racks, hosts int }{
		{8, 64},   // 256 flows: under the fan-out threshold
		{32, 256}, // 4k flows: at the threshold
		{64, 512}, // 16k flows: past the ~10⁴ crossover
	} {
		for _, mode := range []string{"serial", "parallel"} {
			b.Run(fmt.Sprintf("%dx%d-%s", shape.racks, shape.hosts, mode), func(b *testing.B) {
				benchParallelSolve(b, shape.racks, shape.hosts, mode == "serial")
			})
		}
	}
}
