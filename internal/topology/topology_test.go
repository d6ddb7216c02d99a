package topology

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/netsim"
	"repro/internal/sim"
)

func newNet() *netsim.Network { return netsim.New(sim.NewEngine(1)) }

func TestMultiRootPaperShape(t *testing.T) {
	net := newNet()
	topo, err := BuildMultiRoot(net, DefaultMultiRoot())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(topo.Hosts); got != 56 {
		t.Fatalf("hosts = %d, paper says 56", got)
	}
	if got := len(topo.Racks); got != 4 {
		t.Fatalf("racks = %d, paper says 4", got)
	}
	for r, rack := range topo.Racks {
		if len(rack) != 14 {
			t.Fatalf("rack %d has %d Pis, paper says 14", r, len(rack))
		}
	}
	if got := len(topo.Edge); got != 4 {
		t.Fatalf("ToR switches = %d, want 4 (one per rack)", got)
	}
	if got := len(topo.Core); got != 1 {
		t.Fatalf("core/gateway = %d, want 1", got)
	}
	if err := Validate(topo, net); err != nil {
		t.Fatal(err)
	}
}

func TestMultiRootWiring(t *testing.T) {
	net := newNet()
	topo, err := BuildMultiRoot(net, DefaultMultiRoot())
	if err != nil {
		t.Fatal(err)
	}
	// Host links run at the Pi's 100Mb/s.
	h := topo.Hosts[0]
	tor := topo.Edge[0]
	l := net.Link(h, tor)
	if l == nil {
		t.Fatalf("no link %s->%s", h, tor)
	}
	if l.Capacity != DefaultHostLinkBps {
		t.Fatalf("host link = %v bps, want 100e6", l.Capacity)
	}
	// Every ToR reaches every aggregation root (multi-root tree).
	for _, tor := range topo.Edge {
		for _, agg := range topo.Agg {
			if net.Link(tor, agg) == nil {
				t.Fatalf("missing %s->%s", tor, agg)
			}
		}
	}
	// Every aggregation switch reaches the gateway.
	for _, agg := range topo.Agg {
		if net.Link(agg, topo.Core[0]) == nil {
			t.Fatalf("missing %s->gateway", agg)
		}
	}
}

func TestMultiRootRejectsBadConfig(t *testing.T) {
	for _, cfg := range []MultiRootConfig{
		{Racks: 0, HostsPerRack: 14},
		{Racks: 4, HostsPerRack: 0},
	} {
		if _, err := BuildMultiRoot(newNet(), cfg); err == nil {
			t.Fatalf("accepted config %+v", cfg)
		}
	}
}

func TestRackQueries(t *testing.T) {
	net := newNet()
	topo, err := BuildMultiRoot(net, DefaultMultiRoot())
	if err != nil {
		t.Fatal(err)
	}
	a, b := topo.Racks[0][0], topo.Racks[0][1]
	c := topo.Racks[1][0]
	if !topo.SameRack(a, b) {
		t.Error("hosts of rack 0 not SameRack")
	}
	if topo.SameRack(a, c) {
		t.Error("hosts of different racks SameRack")
	}
	if topo.RackOf(a) != 0 || topo.RackOf(c) != 1 {
		t.Error("RackOf wrong")
	}
	if topo.RackOf("nope") != -1 {
		t.Error("RackOf unknown host should be -1")
	}
	if topo.SameRack(a, "nope") || topo.SameRack("nope", a) {
		t.Error("SameRack with unknown host should be false")
	}
}

func TestFatTreeK4(t *testing.T) {
	net := newNet()
	topo, err := BuildFatTree(net, FatTreeConfig{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(topo.Hosts); got != 16 {
		t.Fatalf("k=4 hosts = %d, want 16", got)
	}
	if got := len(topo.Core); got != 4 {
		t.Fatalf("k=4 cores = %d, want 4", got)
	}
	if got := len(topo.Agg); got != 8 {
		t.Fatalf("k=4 agg = %d, want 8", got)
	}
	if got := len(topo.Edge); got != 8 {
		t.Fatalf("k=4 edge = %d, want 8", got)
	}
	if err := Validate(topo, net); err != nil {
		t.Fatal(err)
	}
}

func TestFatTreePartialHosts(t *testing.T) {
	net := newNet()
	// 56 Pis re-cabled into a k=8 fat-tree (capacity 128).
	topo, err := BuildFatTree(net, FatTreeConfig{K: 8, Hosts: 56})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(topo.Hosts); got != 56 {
		t.Fatalf("hosts = %d, want 56", got)
	}
	if err := Validate(topo, net); err != nil {
		t.Fatal(err)
	}
}

func TestFatTreeRejectsBadConfig(t *testing.T) {
	cases := []FatTreeConfig{
		{K: 3},            // odd
		{K: 0},            // zero
		{K: 4, Hosts: 17}, // over capacity
	}
	for _, cfg := range cases {
		if _, err := BuildFatTree(newNet(), cfg); err == nil {
			t.Fatalf("accepted config %+v", cfg)
		}
	}
}

func TestLeafSpine(t *testing.T) {
	net := newNet()
	topo, err := BuildLeafSpine(net, DefaultLeafSpine())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(topo.Hosts); got != 56 {
		t.Fatalf("hosts = %d, want 56", got)
	}
	if err := Validate(topo, net); err != nil {
		t.Fatal(err)
	}
	// Full bipartite leaf↔spine.
	for _, leaf := range topo.Edge {
		for _, spine := range topo.Core {
			if net.Link(leaf, spine) == nil {
				t.Fatalf("missing %s->%s", leaf, spine)
			}
		}
	}
	if _, err := BuildLeafSpine(newNet(), LeafSpineConfig{}); err == nil {
		t.Fatal("accepted zero config")
	}
}

// TestValidateCatchesBrokenFabric hits every error branch of Validate,
// each on a freshly wired paper fabric with one defect.
func TestValidateCatchesBrokenFabric(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(t *testing.T, topo *Topology, net *netsim.Network)
		want   string
	}{
		{"no_hosts", func(t *testing.T, topo *Topology, net *netsim.Network) {
			topo.Hosts = nil
		}, "no hosts"},
		{"host_unknown_to_network", func(t *testing.T, topo *Topology, net *netsim.Network) {
			topo.Racks[0][0] = "ghost"
		}, "host ghost has 0 links"},
		{"duplicate_host", func(t *testing.T, topo *Topology, net *netsim.Network) {
			topo.Racks[1] = append(topo.Racks[1], topo.Racks[0][0])
		}, "in two racks"},
		{"rack_count_differs", func(t *testing.T, topo *Topology, net *netsim.Network) {
			topo.Racks[0] = topo.Racks[0][1:]
		}, "racks hold 55 hosts, topology lists 56"},
		{"host_in_no_rack", func(t *testing.T, topo *Topology, net *netsim.Network) {
			topo.Racks[0][0] = topo.Edge[0]
		}, "not in any rack"},
		{"host_with_two_up_links", func(t *testing.T, topo *Topology, net *netsim.Network) {
			if err := net.AddDuplexLink(topo.Racks[0][0], topo.Edge[1], DefaultHostLinkBps, DefaultLinkLatency); err != nil {
				t.Fatal(err)
			}
		}, "has 2 links, want 1"},
		{"partitioned_fabric", func(t *testing.T, topo *Topology, net *netsim.Network) {
			// Disconnect a rack by cutting its ToR uplinks.
			for _, agg := range topo.Agg {
				if err := net.RemoveDuplexLink(topo.Edge[0], agg); err != nil {
					t.Fatal(err)
				}
			}
		}, "nodes reachable"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			net := newNet()
			topo, err := BuildMultiRoot(net, DefaultMultiRoot())
			if err != nil {
				t.Fatal(err)
			}
			if err := Validate(topo, net); err != nil {
				t.Fatalf("intact fabric rejected: %v", err)
			}
			c.mutate(t, topo, net)
			err = Validate(topo, net)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Validate = %v, want an error containing %q", err, c.want)
			}
		})
	}
}

// Property: any valid multi-root config yields a fabric that validates
// and has racks×hostsPerRack hosts.
func TestPropertyMultiRootValid(t *testing.T) {
	f := func(racks, hosts, aggs uint8) bool {
		r := int(racks%6) + 1
		h := int(hosts%10) + 1
		a := int(aggs%3) + 1
		net := newNet()
		topo, err := BuildMultiRoot(net, MultiRootConfig{Racks: r, HostsPerRack: h, AggSwitches: a})
		if err != nil {
			return false
		}
		if len(topo.Hosts) != r*h {
			return false
		}
		return Validate(topo, net) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRenderFig1(t *testing.T) {
	net := newNet()
	topo, err := BuildMultiRoot(net, DefaultMultiRoot())
	if err != nil {
		t.Fatal(err)
	}
	art := Render(topo)
	if !strings.Contains(art, "56 hosts in 4 racks") {
		t.Errorf("render missing scale line:\n%s", art)
	}
	if got := strings.Count(art, "├─"); got != 56 {
		t.Errorf("render shows %d Pis, want 56", got)
	}
	for _, want := range []string{"rack 0", "rack 3", "tor-00", "gw-00"} {
		if !strings.Contains(art, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestFabricString(t *testing.T) {
	if FabricMultiRoot.String() != "multi-root-tree" ||
		FabricFatTree.String() != "fat-tree" ||
		FabricLeafSpine.String() != "leaf-spine" {
		t.Error("fabric names wrong")
	}
}

func BenchmarkBuildMultiRoot56(b *testing.B) {
	for i := 0; i < b.N; i++ {
		net := netsim.New(sim.NewEngine(1))
		if _, err := BuildMultiRoot(net, DefaultMultiRoot()); err != nil {
			b.Fatal(err)
		}
	}
}
