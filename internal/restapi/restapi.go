// Package restapi implements the management daemon that runs on every
// PiCloud node: "an API daemon on each Pi providing a RESTful management
// interface for facilitating virtual host management and interacting with
// a head node (the pimaster)".
//
// The daemon is real net/http code serving JSON — the layer of this
// reproduction that is not simulated. It fronts the node's LXC suite and
// kernel under the cloud-wide mutex, so HTTP handlers (their own
// goroutines) serialise correctly against the single-threaded simulation.
package restapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/energy"
	"repro/internal/hw"
	"repro/internal/lxc"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// APIPrefix is the base path of the node API.
const APIPrefix = "/api/v1"

// NodeStatus is the GET /status document.
type NodeStatus struct {
	Node        string  `json:"node"`
	Model       string  `json:"model"`
	Arch        string  `json:"arch"`
	CPUUtil     float64 `json:"cpu_util"`
	CPUMIPS     float64 `json:"cpu_mips"`
	MemUsed     int64   `json:"mem_used_bytes"`
	MemTotal    int64   `json:"mem_total_bytes"`
	SDUsed      int64   `json:"sd_used_bytes"`
	SDTotal     int64   `json:"sd_total_bytes"`
	Containers  int     `json:"containers"`
	Running     int     `json:"running"`
	PowerWatts  float64 `json:"power_watts"`
	SimTime     string  `json:"sim_time"`
	OOMRejects  uint64  `json:"oom_rejects"`
	MaxComfort  int     `json:"max_comfortable_containers"`
	PoweredOn   bool    `json:"powered_on"`
	Rack        int     `json:"rack"`
	NetsimID    string  `json:"netsim_id"`
	APIRequests uint64  `json:"api_requests"`
}

// ContainerDoc is the JSON view of one container.
type ContainerDoc struct {
	Name     string `json:"name"`
	Image    string `json:"image"`
	State    string `json:"state"`
	Net      string `json:"net"`
	MemBytes int64  `json:"mem_bytes"`
	Shares   int    `json:"cpu_shares"`
	Quota    int64  `json:"cpu_quota_mips"`
}

// SpawnRequest is the POST /containers body.
type SpawnRequest struct {
	Name          string `json:"name"`
	Image         string `json:"image"`
	MemLimitBytes int64  `json:"mem_limit_bytes,omitempty"`
	CPUShares     int    `json:"cpu_shares,omitempty"`
	CPUQuotaMIPS  int64  `json:"cpu_quota_mips,omitempty"`
	Net           string `json:"net,omitempty"` // "bridged" (default) or "nat"
}

// LimitsRequest is the PUT /containers/{name}/limits body — the paper's
// "(soft) per-VM resource utilisation limits".
type LimitsRequest struct {
	MemLimitBytes int64 `json:"mem_limit_bytes"`
	CPUShares     int   `json:"cpu_shares"`
	CPUQuotaMIPS  int64 `json:"cpu_quota_mips"`
}

// ActionRequest is the POST /containers/{name}/actions body.
type ActionRequest struct {
	Action string `json:"action"` // start, stop, freeze, unfreeze
}

// ErrorDoc is the JSON error envelope.
type ErrorDoc struct {
	Error string `json:"error"`
}

// Daemon serves the node management API.
type Daemon struct {
	// Mu is the cloud-wide lock; every handler holds it while touching
	// simulation state. Shared with the engine driver.
	mu *sync.Mutex

	node     string
	rack     int
	netsimID string
	engine   *sim.Engine
	suite    *lxc.Suite
	meter    *energy.Meter

	// requests, spawns and destroys are guarded by mu; the monitoring
	// series StartSampling fills lock themselves.
	requests, spawns, destroys uint64
	cpuUtil, memUsed, power    metrics.TimeSeries
}

// New builds a daemon for one node. meter may be nil.
func New(mu *sync.Mutex, engine *sim.Engine, node string, rack int, netsimID string, suite *lxc.Suite, meter *energy.Meter) *Daemon {
	return &Daemon{
		mu:       mu,
		node:     node,
		rack:     rack,
		netsimID: netsimID,
		engine:   engine,
		suite:    suite,
		meter:    meter,
	}
}

// Handler returns the daemon's HTTP handler.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+APIPrefix+"/status", d.handleStatus)
	mux.HandleFunc("GET "+APIPrefix+"/containers", d.handleList)
	mux.HandleFunc("POST "+APIPrefix+"/containers", d.handleSpawn)
	mux.HandleFunc("GET "+APIPrefix+"/containers/{name}", d.handleGet)
	mux.HandleFunc("DELETE "+APIPrefix+"/containers/{name}", d.handleDelete)
	mux.HandleFunc("POST "+APIPrefix+"/containers/{name}/actions", d.handleAction)
	mux.HandleFunc("PUT "+APIPrefix+"/containers/{name}/limits", d.handleLimits)
	mux.HandleFunc("GET "+APIPrefix+"/metrics", d.handleMetrics)
	mux.HandleFunc("GET "+APIPrefix+"/series", d.handleSeries)
	return d.count(mux)
}

// count tracks API traffic for the status document.
func (d *Daemon) count(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d.mu.Lock()
		d.requests++
		d.mu.Unlock()
		next.ServeHTTP(w, r)
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, lxc.ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, lxc.ErrExists):
		code = http.StatusConflict
	case errors.Is(err, lxc.ErrBadState), errors.Is(err, lxc.ErrBadSpec):
		code = http.StatusConflict
	case errors.Is(err, lxc.ErrDiskFull), errors.Is(err, lxc.ErrNoCapacity):
		code = http.StatusInsufficientStorage
	}
	writeJSON(w, code, ErrorDoc{Error: err.Error()})
}

// Status snapshots the node (also used directly by pimaster's view
// builder through the client).
func (d *Daemon) Status() NodeStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	k := d.suite.Kernel()
	spec := k.Spec()
	power := 0.0
	powered := true
	if d.meter != nil {
		power = d.meter.CurrentWatts()
		powered = d.meter.On()
	}
	return NodeStatus{
		Node:        d.node,
		Model:       spec.Model,
		Arch:        spec.Arch.String(),
		CPUUtil:     k.CPUUtil(),
		CPUMIPS:     float64(spec.CPU),
		MemUsed:     k.MemUsed(),
		MemTotal:    k.MemTotal(),
		SDUsed:      d.suite.SDUsedBytes(),
		SDTotal:     spec.Storage.CapacityBytes,
		Containers:  d.suite.Count(),
		Running:     d.suite.RunningCount(),
		PowerWatts:  power,
		SimTime:     d.engine.Now().String(),
		OOMRejects:  k.OOMRejects(),
		MaxComfort:  lxc.ComfortableContainersPerPi,
		PoweredOn:   powered,
		Rack:        d.rack,
		NetsimID:    d.netsimID,
		APIRequests: d.requests,
	}
}

func (d *Daemon) handleStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, d.Status())
}

// --- Direct dispatch ---
//
// The direct methods below are the boot-path fast lane: they perform
// exactly what the corresponding HTTP handlers do — same locking, same
// rollback, same request accounting — but skip the HTTP framing and the
// JSON encode/decode round trip. A Client bound with NewDirectClient
// routes its hottest calls here; every field of every result is
// bit-identical to what the JSON path would deliver (encoding/json
// round-trips float64 losslessly), so traces and placement decisions do
// not depend on which lane served a request. Management-plane fidelity
// is preserved: the HTTP handlers remain the definition of the API, and
// the direct methods are kept in lockstep with them.

// countRequest mirrors the count middleware for direct calls, so
// NodeStatus.APIRequests stays an honest request counter either way.
func (d *Daemon) countRequest() {
	d.mu.Lock()
	d.requests++
	d.mu.Unlock()
}

// StatusDirect is GET /status without the transport: one request
// counted, same snapshot.
func (d *Daemon) StatusDirect() NodeStatus {
	d.countRequest()
	return d.Status()
}

// SpawnDirect is POST /containers without the transport: create, start,
// and roll back the create if the start fails, exactly like handleSpawn.
func (d *Daemon) SpawnDirect(req SpawnRequest) (ContainerDoc, error) {
	d.countRequest()
	netMode, err := netModeOf(req.Net)
	if err != nil {
		return ContainerDoc{}, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.spawnLocked(req, netMode)
}

// spawnLocked is the shared create+start path. Caller holds d.mu.
func (d *Daemon) spawnLocked(req SpawnRequest, netMode lxc.NetMode) (ContainerDoc, error) {
	if _, err := d.suite.Create(lxc.Spec{
		Name:          req.Name,
		Image:         req.Image,
		MemLimitBytes: req.MemLimitBytes,
		CPUShares:     req.CPUShares,
		CPUQuotaMIPS:  hw.MIPS(req.CPUQuotaMIPS),
		Net:           netMode,
	}); err != nil {
		return ContainerDoc{}, err
	}
	if err := d.suite.Start(req.Name, nil); err != nil {
		// Roll back the create so the API is atomic.
		_ = d.suite.Destroy(req.Name)
		return ContainerDoc{}, err
	}
	d.spawns++
	info, _ := d.suite.InfoOf(req.Name)
	return docFromInfo(info), nil
}

// DeleteDirect is DELETE /containers/{name} without the transport.
func (d *Daemon) DeleteDirect(name string) error {
	d.countRequest()
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.deleteLocked(name)
}

// deleteLocked is the shared stop+destroy path. Caller holds d.mu.
func (d *Daemon) deleteLocked(name string) error {
	c, err := d.suite.Get(name)
	if err != nil {
		return err
	}
	if c.State() != lxc.StateStopped {
		if err := d.suite.Stop(name); err != nil {
			return err
		}
	}
	if err := d.suite.Destroy(name); err != nil {
		return err
	}
	d.destroys++
	return nil
}

// netModeOf maps the wire net-mode string to lxc.NetMode.
func netModeOf(s string) (lxc.NetMode, error) {
	switch s {
	case "", "bridged":
		return lxc.NetBridged, nil
	case "nat":
		return lxc.NetNAT, nil
	default:
		return 0, fmt.Errorf("restapi: unknown net mode %q", s)
	}
}

func (d *Daemon) handleList(w http.ResponseWriter, _ *http.Request) {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]ContainerDoc, 0, d.suite.Count())
	for _, name := range d.suite.List() {
		info, err := d.suite.InfoOf(name)
		if err != nil {
			continue
		}
		out = append(out, docFromInfo(info))
	}
	writeJSON(w, http.StatusOK, out)
}

func docFromInfo(info lxc.Info) ContainerDoc {
	return ContainerDoc{
		Name:     info.Name,
		Image:    info.Image,
		State:    info.State,
		Net:      info.Net,
		MemBytes: info.MemBytes,
		Shares:   info.Shares,
		Quota:    int64(info.Quota),
	}
}

func (d *Daemon) handleSpawn(w http.ResponseWriter, r *http.Request) {
	var req SpawnRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorDoc{Error: "bad json: " + err.Error()})
		return
	}
	netMode, err := netModeOf(req.Net)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorDoc{Error: fmt.Sprintf("unknown net mode %q", req.Net)})
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	doc, err := d.spawnLocked(req, netMode)
	if err != nil {
		writeErr(w, err)
		return
	}
	// 202: the container boots asynchronously (STARTING → RUNNING).
	writeJSON(w, http.StatusAccepted, doc)
}

func (d *Daemon) handleGet(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	defer d.mu.Unlock()
	info, err := d.suite.InfoOf(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, docFromInfo(info))
}

func (d *Daemon) handleDelete(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	err := d.deleteLocked(r.PathValue("name"))
	d.mu.Unlock()
	if err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (d *Daemon) handleAction(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req ActionRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorDoc{Error: "bad json: " + err.Error()})
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	var err error
	switch req.Action {
	case "start":
		err = d.suite.Start(name, nil)
	case "stop":
		err = d.suite.Stop(name)
	case "freeze":
		err = d.suite.Freeze(name)
	case "unfreeze":
		err = d.suite.Unfreeze(name)
	default:
		writeJSON(w, http.StatusBadRequest, ErrorDoc{Error: fmt.Sprintf("unknown action %q", req.Action)})
		return
	}
	if err != nil {
		writeErr(w, err)
		return
	}
	info, _ := d.suite.InfoOf(name)
	writeJSON(w, http.StatusOK, docFromInfo(info))
}

func (d *Daemon) handleLimits(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req LimitsRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorDoc{Error: "bad json: " + err.Error()})
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.suite.SetLimits(name, req.MemLimitBytes, req.CPUShares, hw.MIPS(req.CPUQuotaMIPS)); err != nil {
		writeErr(w, err)
		return
	}
	info, _ := d.suite.InfoOf(name)
	writeJSON(w, http.StatusOK, docFromInfo(info))
}

func (d *Daemon) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	d.mu.Lock()
	k := d.suite.Kernel()
	snap := map[string]float64{
		"spawns":         float64(d.spawns),
		"destroys":       float64(d.destroys),
		"cpu_util":       k.CPUUtil(),
		"mem_used_bytes": float64(k.MemUsed()),
	}
	if d.meter != nil {
		snap["power_watts"] = d.meter.CurrentWatts()
	}
	d.mu.Unlock()
	writeJSON(w, http.StatusOK, snap)
}

// StartSampling begins periodic monitoring: every period the daemon
// records CPU utilisation, memory and power into its time series — the
// data behind the panel's load bars and the paper's "remote monitoring
// of the CPU load on some/all Pi nodes". Call under the cloud lock (it
// arms a simulation ticker). Returns a stop function.
func (d *Daemon) StartSampling(period sim.Duration) func() {
	ticker := d.engine.NewTicker(period, func(at sim.Time) {
		k := d.suite.Kernel()
		d.cpuUtil.Record(at, k.CPUUtil())
		d.memUsed.Record(at, float64(k.MemUsed()))
		if d.meter != nil {
			d.power.Record(at, d.meter.CurrentWatts())
		}
	})
	return ticker.Stop
}

// SeriesSummary is the JSON shape of one monitored series.
type SeriesSummary struct {
	Name    string  `json:"name"`
	Samples int     `json:"samples"`
	Mean    float64 `json:"mean"`
	Max     float64 `json:"max"`
	Last    float64 `json:"last"`
}

// handleSeries serves GET /api/v1/series: the sampled monitoring data.
func (d *Daemon) handleSeries(w http.ResponseWriter, _ *http.Request) {
	d.mu.Lock()
	out := make([]SeriesSummary, 0, 3)
	for _, ns := range []struct {
		name string
		s    *metrics.TimeSeries
	}{{"cpu_util", &d.cpuUtil}, {"mem_used_bytes", &d.memUsed}, {"power_watts", &d.power}} {
		sum := SeriesSummary{Name: ns.name, Samples: ns.s.Len(), Mean: ns.s.Mean(), Max: ns.s.Max()}
		if last, ok := ns.s.Last(); ok {
			sum.Last = last.Value
		}
		out = append(out, sum)
	}
	d.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}
