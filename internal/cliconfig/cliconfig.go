// Package cliconfig is the configuration surface shared by the three
// binaries: the flag set piscale, picloud and piscaled register (fleet
// shape, fabric, seed, duration, sampling), the fabric-name parser,
// and the wire-level spec and fault decoding the session service
// (piscaled) and piscale's checkpoint files both speak. One package, one set of
// JSON field names, one override order — a spec decoded from a
// checkpoint file, a command line or a POST body resolves through the
// identical code path.
package cliconfig

import (
	"encoding/json"
	"flag"
	"fmt"
	"time"

	"repro/internal/netsim"
	"repro/internal/scenario"
	"repro/internal/topology"
)

// Common is the flag surface shared by piscale, picloud and piscaled.
// Zero values mean "no override" (keep the catalog scenario's choice);
// Seed uses -1 for the same, since 0 is a legal seed. Populate the
// defaults before Register so each binary keeps its traditional ones
// (piscale defaults to no overrides, picloud to the published 4×14
// PiCloud).
type Common struct {
	Racks        int
	HostsPerRack int
	Fabric       string
	Seed         int64
	Duration     time.Duration
	Sample       time.Duration
}

// Register installs the shared flags on fs, with the receiver's current
// values as defaults.
func (c *Common) Register(fs *flag.FlagSet) {
	fs.IntVar(&c.Racks, "racks", c.Racks, "override the rack count")
	fs.IntVar(&c.HostsPerRack, "hosts-per-rack", c.HostsPerRack, "override Pis per rack")
	fs.StringVar(&c.Fabric, "fabric", c.Fabric, "fabric: multi-root-tree, fat-tree, leaf-spine")
	fs.Int64Var(&c.Seed, "seed", c.Seed, "override the scenario's RNG seed (-1 = keep)")
	fs.DurationVar(&c.Duration, "duration", c.Duration, "override the simulated duration")
	fs.DurationVar(&c.Sample, "sample", c.Sample, "override the metrics sampling cadence")
}

// SpecRequest renders the overrides as the wire form for the named
// catalog scenario.
func (c Common) SpecRequest(scenarioName string) SpecRequest {
	r := SpecRequest{
		Scenario:     scenarioName,
		Duration:     Duration(c.Duration),
		Racks:        c.Racks,
		HostsPerRack: c.HostsPerRack,
		Fabric:       c.Fabric,
		Sample:       Duration(c.Sample),
	}
	if c.Seed >= 0 {
		s := c.Seed
		r.Seed = &s
	}
	return r
}

// ParseFabric maps a fabric name to the topology constant. The empty
// name keeps the catalog scenario's fabric (resolves to the multi-root
// tree for a fresh config, matching core's default).
func ParseFabric(name string) (topology.Fabric, error) {
	switch name {
	case "", "multi-root-tree":
		return topology.FabricMultiRoot, nil
	case "fat-tree":
		return topology.FabricFatTree, nil
	case "leaf-spine":
		return topology.FabricLeafSpine, nil
	default:
		return 0, fmt.Errorf("unknown fabric %q (want multi-root-tree, fat-tree or leaf-spine)", name)
	}
}

// Duration marshals as integer nanoseconds (the checkpoint-file
// convention) and additionally unmarshals Go duration strings, so API
// clients can write "30s" where checkpoint files write 30000000000.
type Duration time.Duration

// MarshalJSON renders integer nanoseconds.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(int64(d))
}

// UnmarshalJSON accepts integer nanoseconds or a duration string.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var ns int64
	if err := json.Unmarshal(b, &ns); err == nil {
		*d = Duration(ns)
		return nil
	}
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("duration must be integer nanoseconds or a duration string: %s", b)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	*d = Duration(v)
	return nil
}

// SpecRequest is the wire form of "a catalog scenario plus overrides" —
// the field names are piscale's checkpoint-file fields, so a checkpoint
// payload, a -scenario command line and a POST /v1/sessions body all
// decode through Resolve. A nil (or negative) Seed keeps the catalog
// seed; zero numeric fields keep the catalog values. The kernel's
// oracle twins are not on the wire: they are core.Config.Kernel only,
// and Resolve keeps the catalog scenario's (default) kernel. Fields of
// older encodings that carried them decode and are ignored.
type SpecRequest struct {
	Scenario     string   `json:"scenario"`
	Seed         *int64   `json:"seed,omitempty"`
	Duration     Duration `json:"duration_ns,omitempty"`
	Racks        int      `json:"racks,omitempty"`
	HostsPerRack int      `json:"hosts_per_rack,omitempty"`
	Fabric       string   `json:"fabric,omitempty"`
	Sample       Duration `json:"sample_ns,omitempty"`
}

// Resolve looks the scenario up in the catalog and applies the
// overrides.
func (r SpecRequest) Resolve() (scenario.Spec, error) {
	spec, err := scenario.Catalog(r.Scenario)
	if err != nil {
		return scenario.Spec{}, err
	}
	if r.Seed != nil && *r.Seed >= 0 {
		spec.Cloud.Seed = *r.Seed
	}
	if r.Duration > 0 {
		spec.Duration = time.Duration(r.Duration)
	}
	if r.Racks > 0 {
		spec.Cloud.Racks = r.Racks
	}
	if r.HostsPerRack > 0 {
		spec.Cloud.HostsPerRack = r.HostsPerRack
	}
	if r.Fabric != "" {
		f, err := ParseFabric(r.Fabric)
		if err != nil {
			return scenario.Spec{}, err
		}
		spec.Cloud.Fabric = f
	}
	if r.Sample > 0 {
		spec.SampleEvery = time.Duration(r.Sample)
	}
	return spec, nil
}

// CheckpointFile is piscale's on-disk checkpoint: the wire spec that
// shaped the run (the vocabulary POST bodies speak), the scenario.Stamp
// a resume must reproduce, and the engine's counters at the capture.
// The counters are informational — the kernel digest already hashes
// them — and keep the file readable at a glance.
type CheckpointFile struct {
	SpecRequest
	scenario.Stamp
	KernelNow     int64  `json:"kernel_now_ns"`
	KernelSeq     uint64 `json:"kernel_seq"`
	KernelFired   uint64 `json:"kernel_fired"`
	KernelPending int    `json:"kernel_pending"`
}

// NewCheckpointFile captures a paused run, resolved from req, as a
// checkpoint file.
func NewCheckpointFile(req SpecRequest, r *scenario.Run) CheckpointFile {
	f := CheckpointFile{SpecRequest: req, Stamp: r.Stamp()}
	e := r.Cloud.Engine
	f.KernelNow, f.KernelSeq, f.KernelFired, f.KernelPending = int64(e.Now()), e.Seq(), e.Fired(), e.Pending()
	return f
}

// MarshalJSON writes the file's field order: the spec, the offset, the
// counters, then the digests.
func (f CheckpointFile) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		SpecRequest
		At            time.Duration `json:"at_ns"`
		KernelNow     int64         `json:"kernel_now_ns"`
		KernelSeq     uint64        `json:"kernel_seq"`
		KernelFired   uint64        `json:"kernel_fired"`
		KernelPending int           `json:"kernel_pending"`
		KernelDigest  string        `json:"kernel_digest"`
		TraceLen      int           `json:"trace_len"`
		TraceDigest   string        `json:"trace_digest"`
	}{f.SpecRequest, f.At, f.KernelNow, f.KernelSeq, f.KernelFired, f.KernelPending, f.KernelDigest, f.TraceLen, f.TraceDigest})
}

// DecodeCheckpointFile parses a checkpoint file; piscale -resume-from
// reads every file through it. A decoded file may still name an
// unknown scenario or an offset past its run: Checkpoint and the
// rebuild refuse those.
func DecodeCheckpointFile(data []byte) (CheckpointFile, error) {
	var f CheckpointFile
	if err := json.Unmarshal(data, &f); err != nil {
		return CheckpointFile{}, fmt.Errorf("checkpoint file: %w", err)
	}
	if f.At < 0 {
		return CheckpointFile{}, fmt.Errorf("checkpoint file: negative offset %v", f.At)
	}
	return f, nil
}

// Checkpoint resolves the file into the scenario checkpoint a resume
// forks: the spec with the file's overrides applied, no injection
// history, and the file's stamp.
func (f CheckpointFile) Checkpoint() (*scenario.Checkpoint, error) {
	spec, err := f.Resolve()
	if err != nil {
		return nil, err
	}
	return &scenario.Checkpoint{Spec: spec, Stamp: f.Stamp}, nil
}

// FaultRequest is the wire form of one fault-injection entry — the
// declarative side of scenario's Fault catalogue, for the session
// API's inject endpoint. Kind selects the fault; the remaining fields
// parameterise it (unused ones are ignored).
type FaultRequest struct {
	Kind string `json:"kind"`
	// A/B name netsim nodes for link-fail (empty = first ToR uplink).
	A string `json:"a,omitempty"`
	B string `json:"b,omitempty"`
	// Rack indexes the victim rack for rack-fail.
	Rack int `json:"rack,omitempty"`
	// At/Outage time the one-shot faults.
	At     Duration `json:"at_ns,omitempty"`
	Outage Duration `json:"outage_ns,omitempty"`
	// Start/Every time node-churn's power-cycle cadence.
	Start Duration `json:"start_ns,omitempty"`
	Every Duration `json:"every_ns,omitempty"`
	// Moves/Routing parameterise migration-storm.
	Moves   int    `json:"moves,omitempty"`
	Routing string `json:"routing,omitempty"`
	// CapacityScale/ExtraLatency/Loss shape degrade's tc profile.
	CapacityScale float64  `json:"capacity_scale,omitempty"`
	ExtraLatency  Duration `json:"extra_latency_ns,omitempty"`
	Loss          float64  `json:"loss,omitempty"`
}

// Fault decodes the request into the scenario fault it names.
func (f FaultRequest) Fault() (scenario.Fault, error) {
	switch f.Kind {
	case "link-fail":
		return scenario.LinkFail{
			A: netsim.NodeID(f.A), B: netsim.NodeID(f.B),
			At: time.Duration(f.At), Outage: time.Duration(f.Outage),
		}, nil
	case "degrade":
		return scenario.Degrade{
			At: time.Duration(f.At), Outage: time.Duration(f.Outage),
			Shaping: netsim.Shaping{
				CapacityScale: f.CapacityScale,
				ExtraLatency:  time.Duration(f.ExtraLatency),
				Loss:          f.Loss,
			},
		}, nil
	case "rack-fail":
		return scenario.RackFail{
			Rack: f.Rack, At: time.Duration(f.At), Outage: time.Duration(f.Outage),
		}, nil
	case "node-churn":
		return scenario.NodeChurn{
			Start: time.Duration(f.Start), Every: time.Duration(f.Every),
			Outage: time.Duration(f.Outage),
		}, nil
	case "migration-storm":
		return scenario.MigrationStorm{
			At: time.Duration(f.At), Moves: f.Moves, Routing: f.Routing,
		}, nil
	default:
		return nil, fmt.Errorf("unknown fault kind %q (want link-fail, degrade, rack-fail, node-churn or migration-storm)", f.Kind)
	}
}

// EncodeFault is Fault's inverse: render a scenario fault back into its
// wire form, so an injection that arrived through the Go API can be
// journaled (and later re-decoded) exactly like one that arrived as a
// POST body. Faults with no wire vocabulary — scenario.HookFault and
// any future programmatic-only fault — return an error: they cannot be
// made durable.
func EncodeFault(f scenario.Fault) (FaultRequest, error) {
	switch v := f.(type) {
	case scenario.LinkFail:
		return FaultRequest{Kind: "link-fail", A: string(v.A), B: string(v.B),
			At: Duration(v.At), Outage: Duration(v.Outage)}, nil
	case scenario.Degrade:
		return FaultRequest{Kind: "degrade", At: Duration(v.At), Outage: Duration(v.Outage),
			CapacityScale: v.Shaping.CapacityScale,
			ExtraLatency:  Duration(v.Shaping.ExtraLatency),
			Loss:          v.Shaping.Loss}, nil
	case scenario.RackFail:
		return FaultRequest{Kind: "rack-fail", Rack: v.Rack,
			At: Duration(v.At), Outage: Duration(v.Outage)}, nil
	case scenario.NodeChurn:
		return FaultRequest{Kind: "node-churn", Start: Duration(v.Start),
			Every: Duration(v.Every), Outage: Duration(v.Outage)}, nil
	case scenario.MigrationStorm:
		return FaultRequest{Kind: "migration-storm", At: Duration(v.At),
			Moves: v.Moves, Routing: v.Routing}, nil
	default:
		return FaultRequest{}, fmt.Errorf("fault %T has no wire form and cannot be journaled", f)
	}
}
