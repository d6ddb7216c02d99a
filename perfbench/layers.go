package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sdn"
)

// Every per-layer figure is read from outside the program: timers
// around calls into each layer's public functions, the counters the
// layers already keep, and the Go runtime's own metrics.

// runtimeSample is one reading of the runtime counters the benchmark
// reports as GC and heap cost.
type runtimeSample struct {
	gcCycles    uint64
	gcCPU       float64
	totalCPU    float64
	allocBytes  uint64
	allocObjs   uint64
	pauseTotalS float64
}

var runtimeMetricNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readRuntime() runtimeSample {
	ms := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	// runtime/metrics exposes GC pauses only as a histogram; the exact
	// total comes from MemStats.
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return runtimeSample{
		gcCycles:    ms[0].Value.Uint64(),
		gcCPU:       ms[1].Value.Float64(),
		totalCPU:    ms[2].Value.Float64(),
		allocBytes:  ms[3].Value.Uint64(),
		allocObjs:   ms[4].Value.Uint64(),
		pauseTotalS: float64(mem.PauseTotalNs) / 1e9,
	}
}

// addRuntimeDelta records the GC and heap cost between two readings.
func addRuntimeDelta(l map[string]float64, from, to runtimeSample) {
	l["gc.cycles"] = float64(to.gcCycles - from.gcCycles)
	if cpu := to.totalCPU - from.totalCPU; cpu > 0 {
		l["gc.cpu_fraction"] = (to.gcCPU - from.gcCPU) / cpu
	}
	l["gc.pause_total_s"] = to.pauseTotalS - from.pauseTotalS
	l["heap.alloc_bytes"] = float64(to.allocBytes - from.allocBytes)
	l["heap.alloc_objects"] = float64(to.allocObjs - from.allocObjs)
}

// addKernelCounters records the scheduler, SDN, OpenFlow and flow-solver
// counters of a paused cloud.
func addKernelCounters(l map[string]float64, c *core.Cloud) {
	ks := c.KernelStats()
	l["sim.events_fired"] = float64(ks.Sched.Fired)
	l["sim.events_scheduled"] = float64(ks.Sched.Scheduled)
	l["sim.tombstones"] = float64(ks.Sched.Tombstones)
	l["sim.reshapes"] = float64(ks.Sched.Reshapes)

	sd := ks.Sdn
	l["sdn.route_cache_hits"] = float64(sd.RouteCacheHits)
	l["sdn.route_cache_misses"] = float64(sd.RouteCacheMisses)
	l["sdn.route_cache_evictions"] = float64(sd.RouteCacheEvicts)
	l["sdn.cache_hit_ratio"] = ratio(sd.RouteCacheHits, sd.RouteCacheHits+sd.RouteCacheMisses)
	for i, tier := range sdn.SynthTierNames {
		l["sdn.synth_hits."+tier] = float64(sd.RouteSynthHitsByTier[i])
	}
	l["sdn.synth_ratio"] = ratio(sd.RouteSynthHits, sd.RouteCacheMisses)
	l["sdn.dijkstra_fallbacks"] = float64(sd.DijkstraFallbacks)
	l["sdn.packet_ins"] = float64(sd.PacketIns)
	l["sdn.rules_installed"] = float64(sd.RulesInstalled)

	var lookups, misses, evictions uint64
	c.Mu.Lock()
	for _, id := range c.Topo.Switches() {
		if sw := c.Ctrl.Switch(id); sw != nil {
			lk, ms, ev := sw.Stats()
			lookups, misses, evictions = lookups+lk, misses+ms, evictions+ev
		}
	}
	c.Mu.Unlock()
	l["openflow.lookups"] = float64(lookups)
	l["openflow.misses"] = float64(misses)
	l["openflow.evictions"] = float64(evictions)

	ns := ks.Net
	l["netsim.flushes"] = float64(ns.Flushes)
	l["netsim.domains_solved"] = float64(ns.DomainsSolved)
	l["netsim.parallel_flushes"] = float64(ns.ParallelFlushes)
	l["netsim.flows_committed"] = float64(ns.FlowsCommitted)
	l["netsim.flows_rescheduled"] = float64(ns.FlowsRescheduled)
	l["netsim.flush_wall_s"] = ns.FlushWall.Seconds()
	l["netsim.solve_wall_s"] = ns.SolveWall.Seconds()
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// timeKernelState returns the median wall time of n Cloud.KernelState
// calls on a paused cloud.
func timeKernelState(c *core.Cloud, n int) float64 {
	ts := make([]float64, n)
	for i := range ts {
		t := time.Now()
		c.KernelState()
		ts[i] = time.Since(t).Seconds()
	}
	return median(ts)
}

// pathForProbe times Ctrl.PathFor over distinct seeded host pairs, once
// right after a topology epoch bump (every lookup misses the route
// cache) and once more warm. mix weights the pairs by route synthesis
// tier, in sdn.SynthTierNames order — the workload's locality mix as its
// run measured it. It returns the median microseconds per call, cold
// then warm. Call it only after the run: the bump invalidates the
// cloud's route cache.
func pathForProbe(c *core.Cloud, seed int64, n int, mix []float64) (coldUS, warmUS float64, err error) {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	pairs, err := tierPairs(c, rand.New(rand.NewSource(seed)), n, mix)
	if err != nil {
		return 0, 0, err
	}
	policy := c.Config.RoutingPolicy
	pass := func() (float64, error) {
		ts := make([]float64, len(pairs))
		for i, p := range pairs {
			t := time.Now()
			if _, err := c.Ctrl.PathFor(p[0], p[1], policy, uint64(i+1)); err != nil {
				return 0, fmt.Errorf("PathFor %s->%s: %w", p[0], p[1], err)
			}
			ts[i] = time.Since(t).Seconds() * 1e6
		}
		return median(ts), nil
	}
	c.Net.BumpTopoEpoch()
	if coldUS, err = pass(); err != nil {
		return 0, 0, err
	}
	warmUS, err = pass()
	return coldUS, warmUS, err
}

// tierPairs draws n distinct host pairs whose edge switches stand in
// the relation of a synthesis tier drawn with the weights of mix: same
// edge switch, directly linked edge switches, one middle switch apart,
// or further (cross-pod). A tier no pair can be found for after
// repeated draws is dropped from the mix.
func tierPairs(c *core.Cloud, rng *rand.Rand, n int, mix []float64) ([][2]netsim.NodeID, error) {
	var hosts []netsim.NodeID
	edge := map[netsim.NodeID]netsim.NodeID{}
	under := map[netsim.NodeID][]netsim.NodeID{}
	for _, rack := range c.Topo.Racks {
		for _, h := range rack {
			if sw := upSwitches(c, h); len(sw) > 0 {
				hosts = append(hosts, h)
				edge[h] = sw[0]
				under[sw[0]] = append(under[sw[0]], h)
			}
		}
	}
	pick := func(xs []netsim.NodeID) netsim.NodeID { return xs[rng.Intn(len(xs))] }
	// candidate draws a destination likely to be at tier t from src.
	candidate := func(src netsim.NodeID, t int) netsim.NodeID {
		e := edge[src]
		for hop := 0; hop < t && t < 3; hop++ {
			up := upSwitches(c, e)
			if len(up) == 0 {
				break
			}
			e = pick(up)
		}
		if hs := under[e]; len(hs) > 0 && t < 3 {
			return pick(hs)
		}
		return pick(hosts)
	}
	weights := append([]float64(nil), mix...)
	seen := map[[2]netsim.NodeID]bool{}
	var pairs [][2]netsim.NodeID
	for len(pairs) < n {
		total := sum(weights)
		if total == 0 || len(hosts) < 2 {
			return nil, fmt.Errorf("no host pairs for the tier mix %v", mix)
		}
		t, x := 0, rng.Float64()*total
		for t < len(weights)-1 && x >= weights[t] {
			x -= weights[t]
			t++
		}
		found := false
		for try := 0; try < 200 && !found; try++ {
			p := [2]netsim.NodeID{pick(hosts), netsim.NodeID("")}
			p[1] = candidate(p[0], t)
			if p[0] != p[1] && !seen[p] && edgeTier(c, edge[p[0]], edge[p[1]]) == t {
				seen[p], found = true, true
				pairs = append(pairs, p)
			}
		}
		if !found {
			weights[t] = 0
		}
	}
	return pairs, nil
}

// upSwitches lists the switches node id has an up link to.
func upSwitches(c *core.Cloud, id netsim.NodeID) []netsim.NodeID {
	var out []netsim.NodeID
	for _, l := range c.Net.NeighborLinks(id) {
		if l.Up() && l.DstKind() == netsim.KindSwitch {
			out = append(out, l.To)
		}
	}
	return out
}

// edgeTier relates two edge switches the way route synthesis's tiers
// do: 0 the same switch, 1 directly linked, 2 one middle switch apart,
// 3 further apart.
func edgeTier(c *core.Cloud, a, b netsim.NodeID) int {
	linked := func(x, y netsim.NodeID) bool {
		l := c.Net.Link(x, y)
		return l != nil && l.Up()
	}
	switch {
	case a == b:
		return 0
	case linked(a, b):
		return 1
	}
	for _, m := range upSwitches(c, a) {
		if linked(m, b) {
			return 2
		}
	}
	return 3
}
