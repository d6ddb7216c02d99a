package main

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
)

// On a fat-tree a rack is a pod, and most pairs inside one pod sit
// under different edge switches. The PathFor probe's pairs must follow
// the tier they were drawn for: same-edge pairs share an edge switch,
// one-mid pairs share a pod but not an edge switch, cross-pod pairs
// lie in different pods.
func TestTierPairsFollowFatTreeTiers(t *testing.T) {
	w, err := workloadByName("fattree-crosspod")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := w.spec(defaultSeed, w.toy)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.New(spec.Cloud)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pod := map[netsim.NodeID]int{}
	for i, rack := range c.Topo.Racks {
		for _, h := range rack {
			pod[h] = i
		}
	}
	edge := func(h netsim.NodeID) netsim.NodeID { return upSwitches(c, h)[0] }
	for tier, want := range map[int]func(a, b netsim.NodeID) bool{
		0: func(a, b netsim.NodeID) bool { return edge(a) == edge(b) },
		2: func(a, b netsim.NodeID) bool { return pod[a] == pod[b] && edge(a) != edge(b) },
		3: func(a, b netsim.NodeID) bool { return pod[a] != pod[b] },
	} {
		mix := make([]float64, 4)
		mix[tier] = 1
		pairs, err := tierPairs(c, rand.New(rand.NewSource(1)), 20, mix)
		if err != nil {
			t.Fatalf("tier %d: %v", tier, err)
		}
		for _, p := range pairs {
			if !want(p[0], p[1]) {
				t.Errorf("tier %d: pair %s -> %s (pods %d, %d; edges %s, %s)",
					tier, p[0], p[1], pod[p[0]], pod[p[1]], edge(p[0]), edge(p[1]))
			}
		}
	}
	// A fat-tree has no directly linked edge switches: that tier is
	// dropped and the others fill the pairs.
	pairs, err := tierPairs(c, rand.New(rand.NewSource(1)), 20, []float64{0, 1, 0, 1})
	if err != nil || len(pairs) != 20 {
		t.Fatalf("mix with an absent tier: %d pairs, %v", len(pairs), err)
	}
}
