// Package fleet owns cloud construction: it turns a Config into a fully
// booted PiCloud fleet — fabric wired, kernels and container suites
// stamped onto every host, daemons addressable, pimaster populated —
// as fast as the hardware allows.
//
// The subsystem is built around four ideas:
//
//   - A node Template: the immutable kernel/suite/image/meter prototype
//     is validated once per board config, then cheaply stamped per host
//     instead of re-deriving and re-validating 10⁵ times.
//   - A construction Plan: every shape-derived value (host names, rack
//     assignments, MACs, static addresses, FQDNs, pool CIDRs) is
//     computed once per fleet shape and reused — see plan.go.
//   - Sharded parallel bring-up: hosts are partitioned into
//     rack-granular shards built on worker goroutines. Workers only
//     construct per-node objects (no shared mutable state, no engine
//     events, no RNG draws); the shards are merged and registered
//     strictly in rack order, so the resulting cloud — and every event
//     trace it produces — is byte-identical to a serial build.
//   - Bulk registration: nodes enter pimaster through RegisterNodes
//     with plan-precomputed addressing, and node clients are bound
//     directly to their in-process daemons, so boot performs no JSON
//     encode/decode round trips through the REST transport.
//
// A booted fleet can be captured as a Snapshot and warm-booted with
// Restore; repeated runs of the same shape (CI, bench sweeps,
// `piscale -trace`) skip plan derivation and fabric validation instead
// of rebuilding them. The package also keeps a process-wide warm cache
// keyed on fleet shape, so Assemble warm-boots automatically.
package fleet

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"repro/internal/energy"
	"repro/internal/hw"
	"repro/internal/image"
	"repro/internal/lxc"
	"repro/internal/migration"
	"repro/internal/netsim"
	"repro/internal/openflow"
	"repro/internal/oslinux"
	"repro/internal/pimaster"
	"repro/internal/placement"
	"repro/internal/restapi"
	"repro/internal/sdn"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Addressing bounds of the 10.<rack>.0.0/20 plan (see
// pimaster.RegisterNode): racks are numbered 0..255 and host numbers
// 2..0xFFE fit the /20, so shapes beyond these collide in the address
// space and are rejected up front.
const (
	// MaxRacks is the largest rack count the addressing plan carries.
	MaxRacks = 256
	// MaxHostsPerRack is the largest per-rack host count that fits the
	// /20 pool after the network, gateway and broadcast addresses.
	MaxHostsPerRack = 4093
)

// KernelOptions collects every kernel ablation and escape-hatch knob
// behind one struct, applied atomically at construction and resume.
// Every option is byte-identical to the defaults by construction — the
// determinism gates prove it on every build — so the zero value is the
// production kernel and every combination is safe to flip for ablation
// benchmarks, differential tests, or as an escape hatch. Config.Kernel
// is the only way these knobs reach a cloud.
type KernelOptions struct {
	// ClassicHeap restores the seed engine's single binary event heap
	// in place of the default two-level calendar scheduler
	// (TestCalendarMatchesClassicHeap pins the equivalence).
	ClassicHeap bool
	// EagerAdvance restores the seed kernel's whole-fleet flow
	// accounting sweep at every time-advancing mutation (see
	// netsim.KernelMode.EagerAdvance).
	EagerAdvance bool
	// SerialSolve forces the congestion-domain solver onto the engine
	// goroutine (see netsim.KernelMode.SerialSolve).
	SerialSolve bool
	// SolveWorkers sizes the parallel solve pool: 0 auto-sizes from
	// GOMAXPROCS with a work threshold; an explicit count forces
	// fan-out (see netsim.KernelMode.SolveWorkers).
	SolveWorkers int
	// FullRecompute re-solves every congestion domain at each flush
	// instead of dirty domains only (see
	// netsim.KernelMode.FullRecompute).
	FullRecompute bool
	// SerialBuild forces single-goroutine fleet construction; the
	// sharded build is byte-identical by construction
	// (TestShardedBuildMatchesSerial).
	SerialBuild bool
	// DisableRouteSynthesis turns off the SDN controller's structured
	// route synthesis, forcing every route-cache miss through the full
	// Dijkstra (see sdn.Config.DisableRouteSynthesis). The synthesis is
	// provably bit-identical (TestRouteSynthesisMatchesDijkstra), so
	// this is the ablation arm of the fat-tree bench series, not a
	// behaviour switch.
	DisableRouteSynthesis bool
}

// Union folds another option set into this one: booleans OR (a knob
// flipped on either surface stays on) and the explicit worker count
// wins over auto. It is how command-line or API overrides land on a
// catalog scenario's options.
func (k KernelOptions) Union(o KernelOptions) KernelOptions {
	k.ClassicHeap = k.ClassicHeap || o.ClassicHeap
	k.EagerAdvance = k.EagerAdvance || o.EagerAdvance
	k.SerialSolve = k.SerialSolve || o.SerialSolve
	k.FullRecompute = k.FullRecompute || o.FullRecompute
	k.SerialBuild = k.SerialBuild || o.SerialBuild
	k.DisableRouteSynthesis = k.DisableRouteSynthesis || o.DisableRouteSynthesis
	if k.SolveWorkers == 0 {
		k.SolveWorkers = o.SolveWorkers
	}
	return k
}

// netMode projects the options onto the network kernel's knob surface.
func (k KernelOptions) netMode() netsim.KernelMode {
	return netsim.KernelMode{
		EagerAdvance:  k.EagerAdvance,
		SerialSolve:   k.SerialSolve,
		SolveWorkers:  k.SolveWorkers,
		FullRecompute: k.FullRecompute,
	}
}

// applyKernel applies the whole kernel-options surface in one step at
// construction/resume — the only place ablation knobs reach the engine
// and the network kernel, so a cloud can never boot with a
// half-applied mix of modes.
func applyKernel(engine *sim.Engine, net *netsim.Network, k KernelOptions) {
	engine.SetClassicHeap(k.ClassicHeap)
	net.SetKernelMode(k.netMode())
}

// Config sizes and seeds a cloud. The zero value (with defaults applied)
// is the published PiCloud: 4 racks × 14 Raspberry Pi Model B.
type Config struct {
	Racks        int
	HostsPerRack int
	// Board is the node hardware (default hw.PiModelB()).
	Board hw.BoardSpec
	// Fabric selects the wiring (default multi-root tree; fat-tree and
	// leaf-spine model the paper's re-cabling).
	Fabric topology.Fabric
	// FatTreeK applies when Fabric is FabricFatTree (default 8).
	FatTreeK int
	// AggSwitches is the number of multi-root aggregation roots (default
	// 2); scale it up with the rack count to keep bisection bandwidth.
	AggSwitches int
	// SpineSwitches applies when Fabric is FabricLeafSpine (default 2).
	SpineSwitches int
	// UplinkBps overrides the switch-to-switch link capacity (default
	// 1 Gb/s); lowering it models an oversubscribed fabric.
	UplinkBps float64
	// LinkLatency overrides the per-hop store-and-forward latency.
	LinkLatency time.Duration
	// Seed drives all stochastic behaviour.
	Seed int64
	// Placer is pimaster's default placement algorithm (best-fit if nil).
	Placer placement.Placer
	// Policy carries overcommit settings.
	Policy placement.Policy
	// Images is the image registry (stock images if nil).
	Images *image.Store
	// RoutingPolicy is the SDN default for workload flows.
	RoutingPolicy sdn.Policy
	// MigrationConfig tunes pre-copy.
	MigrationConfig migration.Config
	// Kernel collects every ablation and escape-hatch knob, applied
	// atomically at construction/resume.
	Kernel KernelOptions
}

// FillDefaults resolves the zero-value fields to the published PiCloud.
func (c *Config) FillDefaults() {
	if c.Racks == 0 {
		c.Racks = topology.DefaultRacks
	}
	if c.HostsPerRack == 0 {
		c.HostsPerRack = topology.DefaultHostsPerRack
	}
	if c.Board.Model == "" {
		c.Board = hw.PiModelB()
	}
	if c.Fabric == 0 {
		c.Fabric = topology.FabricMultiRoot
	}
	if c.FatTreeK == 0 {
		c.FatTreeK = 8
	}
	if c.Images == nil {
		c.Images = image.StockImages()
	}
	if c.RoutingPolicy == 0 {
		c.RoutingPolicy = sdn.PolicyECMP
	}
}

// Validate rejects shapes the addressing plan cannot carry. Catching
// the overflow here — with a clear error — beats colliding addresses
// (or a cryptic per-node registration failure after minutes of
// construction) at 10⁵-node scale.
func (c *Config) Validate() error {
	if c.Racks > MaxRacks {
		return fmt.Errorf("fleet: %d racks exceed the 10.<rack>.0.0/20 addressing plan (max %d racks)",
			c.Racks, MaxRacks)
	}
	if c.HostsPerRack > MaxHostsPerRack {
		return fmt.Errorf("fleet: %d hosts per rack overflow the per-rack /20 pool (max %d hosts; grow racks, not rack depth)",
			c.HostsPerRack, MaxHostsPerRack)
	}
	return c.Board.Validate()
}

// Node bundles everything attached to one Pi.
type Node struct {
	Name   string
	Host   netsim.NodeID
	Rack   int
	Suite  *lxc.Suite
	Meter  *energy.Meter
	Daemon *restapi.Daemon
	Client *restapi.Client
}

// Template is the immutable per-board prototype: the board spec is
// validated once (including a probe kernel boot, so per-host stamping
// cannot fail on board grounds) and every host is then stamped from it.
type Template struct {
	board  hw.BoardSpec
	images *image.Store
}

// NewTemplate validates the board once and returns the prototype.
func NewTemplate(board hw.BoardSpec, images *image.Store) (*Template, error) {
	if err := board.Validate(); err != nil {
		return nil, err
	}
	// Probe-boot a kernel on a throwaway engine: surfaces RAM-below-OS
	// class errors once instead of on host 0 of every build.
	if _, err := oslinux.NewKernel(sim.NewEngine(0), board, "template-probe"); err != nil {
		return nil, err
	}
	return &Template{board: board, images: images}, nil
}

// Stamp instantiates the template on one host: kernel, energy meter
// wired to CPU utilisation, LXC suite, management daemon, and a client
// bound directly to the daemon (boot calls skip HTTP/JSON). It touches
// no shared mutable state, so shards stamp concurrently.
func (t *Template) Stamp(engine *sim.Engine, cloudMu *sync.Mutex, httpClient *http.Client, name string, rack int, at sim.Time) (*Node, error) {
	kernel, err := oslinux.NewKernel(engine, t.board, name)
	if err != nil {
		return nil, err
	}
	meter := energy.NewMeter(t.board.Power, at)
	meter.PowerOn(at)
	kernel.OnUtilChange(func(at sim.Time, util float64) { meter.SetUtilisation(at, util) })
	suite := lxc.NewSuite(engine, kernel, t.images)
	daemon := restapi.New(cloudMu, engine, name, rack, name, suite, meter)
	client := restapi.NewDirectClient(daemon, "http://"+name, httpClient)
	return &Node{
		Name: name, Host: netsim.NodeID(name), Rack: rack,
		Suite: suite, Meter: meter, Daemon: daemon, Client: client,
	}, nil
}

// dispatchTransport routes HTTP requests to in-process node daemons by
// host name, so REST traffic that does go over the wire-shaped path
// needs no TCP listeners. Handlers (a ServeMux per node) are built
// lazily on first request: most nodes of a 10⁵ fleet never receive
// HTTP, and eagerly building 9 routes per node dominated boot.
type dispatchTransport struct {
	mu       sync.Mutex
	daemons  map[string]*restapi.Daemon
	handlers map[string]http.Handler
}

// RoundTrip implements http.RoundTripper.
func (t *dispatchTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.Lock()
	h, ok := t.handlers[req.URL.Host]
	if !ok {
		d, known := t.daemons[req.URL.Host]
		if !known {
			t.mu.Unlock()
			return nil, fmt.Errorf("fleet: no daemon for host %q", req.URL.Host)
		}
		h = d.Handler()
		t.handlers[req.URL.Host] = h
	}
	t.mu.Unlock()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}

// Result is an assembled fleet: every component of a running cloud.
// The core package wraps it into the public Cloud facade.
type Result struct {
	Config Config
	Engine *sim.Engine
	Net    *netsim.Network
	Topo   *topology.Topology
	Ctrl   *sdn.Controller
	Meter  *energy.CloudMeter
	Master *pimaster.Master
	Mig    *migration.Manager
	Nodes  []*Node
	ByHost map[netsim.NodeID]*Node
	ByName map[string]*Node

	plan *Plan
}

// Assemble builds and boots a fleet at virtual time zero: all boards
// powered, fabric wired, daemons addressable, pimaster populated.
// cloudMu is the cloud-wide lock shared with the daemons and the engine
// driver. Construction plans are warm-cached per fleet shape, so a
// second Assemble of the same shape warm-boots automatically.
func Assemble(cfg Config, cloudMu *sync.Mutex) (*Result, error) {
	cfg.FillDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return assemble(cfg, cloudMu, lookupWarmPlan(cfg))
}

// assemble is the shared cold/warm construction path; plan may be nil
// (cold boot: derive and publish it).
func assemble(cfg Config, cloudMu *sync.Mutex, plan *Plan) (*Result, error) {
	tmpl, err := NewTemplate(cfg.Board, cfg.Images)
	if err != nil {
		return nil, err
	}
	engine := sim.NewEngine(cfg.Seed)
	net := netsim.New(engine)
	applyKernel(engine, net, cfg.Kernel)

	topo, err := buildTopology(net, cfg)
	if err != nil {
		return nil, err
	}
	if plan == nil || !plan.validated {
		if err := topology.Validate(topo, net); err != nil {
			return nil, err
		}
	}
	if plan == nil {
		plan = planFor(cfg, topo)
		storeWarmPlan(plan)
	}
	if len(plan.hosts) != len(topo.Hosts) {
		return nil, fmt.Errorf("fleet: plan holds %d hosts, fabric wired %d", len(plan.hosts), len(topo.Hosts))
	}

	sdnCfg := sdn.DefaultConfig()
	sdnCfg.DisableRouteSynthesis = cfg.Kernel.DisableRouteSynthesis
	ctrl := sdn.NewController(engine, net, sdnCfg)
	for _, id := range topo.Switches() {
		ctrl.RegisterSwitch(openflow.NewSwitch(id, engine))
	}

	r := &Result{
		Config: cfg,
		Engine: engine,
		Net:    net,
		Topo:   topo,
		Ctrl:   ctrl,
		Meter:  energy.NewCloudMeter(),
		ByHost: make(map[netsim.NodeID]*Node, len(plan.hosts)),
		ByName: make(map[string]*Node, len(plan.hosts)),
		plan:   plan,
	}
	r.Mig = migration.NewManager(engine, net, ctrl, cfg.MigrationConfig)

	transport := &dispatchTransport{
		daemons:  make(map[string]*restapi.Daemon, len(plan.hosts)),
		handlers: make(map[string]http.Handler),
	}
	httpClient := &http.Client{Transport: transport}

	master, err := pimaster.New(pimaster.Config{
		Engine:     engine,
		CloudMu:    cloudMu,
		Ctrl:       ctrl,
		Images:     cfg.Images,
		Meter:      r.Meter,
		Placer:     cfg.Placer,
		Policy:     cfg.Policy,
		Migrations: r.Mig,
	})
	if err != nil {
		return nil, err
	}
	r.Master = master

	// Sharded bring-up: stamp every host's software stack on worker
	// goroutines, then merge and register in rack order.
	nodes, err := stampAll(cfg, tmpl, engine, cloudMu, httpClient, plan)
	if err != nil {
		return nil, err
	}
	regs := make([]pimaster.NodeReg, len(nodes))
	for i, node := range nodes {
		hp := &plan.hosts[i]
		transport.daemons[node.Name] = node.Daemon
		if err := r.Meter.AttachGrouped(node.Name, node.Rack, node.Meter); err != nil {
			return nil, err
		}
		r.Nodes = append(r.Nodes, node)
		r.ByHost[node.Host] = node
		r.ByName[node.Name] = node
		regs[i] = pimaster.NodeReg{
			Ref: &pimaster.NodeRef{
				Name: node.Name, Host: node.Host, Rack: node.Rack,
				Client: node.Client, Suite: node.Suite, Meter: node.Meter,
			},
			Idx: hp.idx, MAC: hp.mac, Addr: hp.addr, FQDN: hp.fqdn,
		}
	}
	if err := master.RegisterNodes(regs); err != nil {
		return nil, err
	}
	return r, nil
}

// stampAll builds every node from the template. Shards are contiguous
// runs of whole racks; workers write disjoint index ranges of the
// result slice, so no synchronisation beyond the final join is needed
// and the merged order is exactly the serial order.
func stampAll(cfg Config, tmpl *Template, engine *sim.Engine, cloudMu *sync.Mutex, httpClient *http.Client, plan *Plan) ([]*Node, error) {
	nodes := make([]*Node, len(plan.hosts))
	at := engine.Now()
	stampRange := func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			hp := &plan.hosts[i]
			node, err := tmpl.Stamp(engine, cloudMu, httpClient, hp.name, hp.rack, at)
			if err != nil {
				return err
			}
			nodes[i] = node
		}
		return nil
	}
	shards := rackShards(plan, workerCount(cfg, plan))
	if cfg.Kernel.SerialBuild || len(shards) <= 1 {
		if err := stampRange(0, len(plan.hosts)); err != nil {
			return nil, err
		}
		return nodes, nil
	}
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for s, span := range shards {
		wg.Add(1)
		go func(s int, lo, hi int) {
			defer wg.Done()
			errs[s] = stampRange(lo, hi)
		}(s, span[0], span[1])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return nodes, nil
}

// workerCount sizes the shard pool: one worker per core, at least two
// (so the parallel path is exercised — and its determinism proven —
// even on single-core machines), never more than there are racks.
func workerCount(cfg Config, plan *Plan) int {
	if cfg.Kernel.SerialBuild {
		return 1
	}
	w := runtime.GOMAXPROCS(0)
	if w < 2 {
		w = 2
	}
	if racks := len(plan.rackSpans); w > racks {
		w = racks
	}
	if w < 1 {
		w = 1
	}
	return w
}

// rackShards partitions the plan's hosts into n contiguous index spans
// aligned on rack boundaries (a rack is never split across shards).
func rackShards(plan *Plan, n int) [][2]int {
	spans := plan.rackSpans
	if n <= 1 || len(spans) <= 1 {
		return [][2]int{{0, len(plan.hosts)}}
	}
	if n > len(spans) {
		n = len(spans)
	}
	out := make([][2]int, 0, n)
	perShard := (len(spans) + n - 1) / n
	for i := 0; i < len(spans); i += perShard {
		j := i + perShard
		if j > len(spans) {
			j = len(spans)
		}
		out = append(out, [2]int{spans[i][0], spans[j-1][1]})
	}
	return out
}

// buildTopology wires the configured fabric.
func buildTopology(net *netsim.Network, cfg Config) (*topology.Topology, error) {
	switch cfg.Fabric {
	case topology.FabricFatTree:
		return topology.BuildFatTree(net, topology.FatTreeConfig{
			K:           cfg.FatTreeK,
			Hosts:       cfg.Racks * cfg.HostsPerRack,
			HostLinkBps: float64(cfg.Board.NIC.BitsPerSecond),
			UplinkBps:   cfg.UplinkBps,
			Latency:     cfg.LinkLatency,
		})
	case topology.FabricLeafSpine:
		spines := cfg.SpineSwitches
		if spines == 0 {
			spines = topology.DefaultSpineSwitches
		}
		return topology.BuildLeafSpine(net, topology.LeafSpineConfig{
			Leaves:       cfg.Racks,
			Spines:       spines,
			HostsPerLeaf: cfg.HostsPerRack,
			HostLinkBps:  float64(cfg.Board.NIC.BitsPerSecond),
			UplinkBps:    cfg.UplinkBps,
			Latency:      cfg.LinkLatency,
		})
	default:
		mrc := topology.DefaultMultiRoot()
		mrc.Racks = cfg.Racks
		mrc.HostsPerRack = cfg.HostsPerRack
		mrc.HostLinkBps = float64(cfg.Board.NIC.BitsPerSecond)
		if cfg.AggSwitches > 0 {
			mrc.AggSwitches = cfg.AggSwitches
		}
		if cfg.UplinkBps > 0 {
			mrc.UplinkBps = cfg.UplinkBps
		}
		if cfg.LinkLatency > 0 {
			mrc.Latency = cfg.LinkLatency
		}
		return topology.BuildMultiRoot(net, mrc)
	}
}
