package main

import (
	"fmt"
	"time"

	"repro/internal/scenario"
)

// A workload is one named input set; README.md says why each was
// chosen. Scenario workloads copy a catalog spec, set the seed and a
// longer bench-only horizon, and build + run it; the session workload
// drives an in-process session manager.
type workload struct {
	name string
	// catalog names the scenario whose shape the workload uses.
	catalog string
	// full and toy size the workload: the benchmark runs full, the
	// smoke test toy.
	full, toy shape
	session   bool
}

// shape is the part of a workload that differs between the measured
// run and the smoke test.
type shape struct {
	// horizon replaces the catalog Duration (scenario workloads) or
	// extends it so session advances never clamp.
	horizon time.Duration
	// racks/hostsPerRack/fatTreeK override the catalog fleet when > 0.
	racks, hostsPerRack, fatTreeK int
	// slices is how many fixed virtual-time RunTo slices the traced run
	// times (scenario workloads).
	slices int
	// pathPairs is how many distinct host pairs the PathFor probe times.
	pathPairs int
	// Session workload: image offset, advance step per cycle, cycles per
	// child process and traced fork probes.
	imageAt, step time.Duration
	cycles        int
	forkProbes    int
}

var workloads = []workload{
	{
		name:    "fattree-crosspod",
		catalog: "megafleet-fattree-100000",
		full:    shape{horizon: 90 * time.Second, slices: 180, pathPairs: 200},
		toy:     shape{horizon: 30 * time.Second, racks: 8, hostsPerRack: 16, fatTreeK: 8, slices: 30, pathPairs: 20},
	},
	{
		name:    "multiroot-churn",
		catalog: "megafleet-10000",
		full:    shape{horizon: 90 * time.Minute, slices: 180, pathPairs: 2000},
		toy:     shape{horizon: 2 * time.Minute, racks: 6, hostsPerRack: 20, slices: 24, pathPairs: 50},
	},
	{
		name:    "session-forks",
		catalog: "megafleet-1000",
		session: true,
		full: shape{horizon: 10 * time.Minute, imageAt: 30 * time.Second, step: 15 * time.Second,
			cycles: 100, forkProbes: 12, pathPairs: 500},
		toy: shape{horizon: 2 * time.Minute, racks: 4, hostsPerRack: 10, imageAt: 10 * time.Second,
			step: 5 * time.Second, cycles: 4, forkProbes: 2, pathPairs: 20},
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (one of %v)", name, names)
}

// spec resolves the workload's scenario spec for one seed and shape:
// a copy of the catalog entry with the seed applied to Cloud.Seed and
// the bench-only horizon. The catalog itself is never changed.
func (w workload) spec(seed int64, sh shape) (scenario.Spec, error) {
	spec, err := scenario.Catalog(w.catalog)
	if err != nil {
		return scenario.Spec{}, err
	}
	spec.Cloud.Seed = seed
	spec.Duration = sh.horizon
	if sh.racks > 0 {
		spec.Cloud.Racks = sh.racks
	}
	if sh.hostsPerRack > 0 {
		spec.Cloud.HostsPerRack = sh.hostsPerRack
	}
	if sh.fatTreeK > 0 {
		spec.Cloud.FatTreeK = sh.fatTreeK
	}
	return spec, nil
}
