// Mid-scenario restore points and branching. A scenario checkpoint is
// a replay recipe — the spec and the logged injection history — plus
// the Stamp the rebuilt run must reproduce. Every rebuild takes one
// path: build the spec's cloud through core.New (the fleet plan memo
// warm-boots repeated shapes), install the scenario, re-enact the
// injections at their logged offsets, run to the capture offset, then
// check the Stamp: the offset, the cross-layer kernel digest and the
// recorded trace prefix must all match byte-for-byte. Forks
// (Checkpoint.Fork), the durable store's recovery (ReplayRecipe) and
// piscale -resume-from all rebuild this way, so the shared prefix of
// every fork is proven identical before its future may diverge via
// Run.Inject. That is the primitive behind the study catalog's fault
// bisection (bisect-blackout) and A/B fault injection (abtest-faults),
// and behind piscale's -checkpoint-at / -resume-from flags.
package scenario

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Stamp fingerprints a paused run: its timeline offset, the
// cross-layer kernel state digest (core.Cloud.KernelState, which
// hashes the engine clock, sequence and fired counters and every
// pending event alongside the network, controller and meter state) and
// the recorded trace's length and digest. Two runs with equal stamps
// are the same simulated machine at the same instant. The JSON names
// are the durable journal's; the digest fields are omitted when empty
// (journal records written at no paused instant carry only the offset).
type Stamp struct {
	At           time.Duration `json:"at_ns"`
	KernelDigest string        `json:"kernel_digest,omitempty"`
	TraceLen     int           `json:"trace_len,omitempty"`
	TraceDigest  string        `json:"trace_digest,omitempty"`
}

// Stamp captures the run's stamp at its current paused offset. Capture
// is read-only, so a stamped run continues byte-identically to an
// unobserved one.
func (r *Run) Stamp() Stamp {
	return Stamp{
		At:           r.offset,
		KernelDigest: r.Cloud.KernelState().Digest,
		TraceLen:     len(r.trace),
		TraceDigest:  DigestTrace(r.trace),
	}
}

// Check proves a paused run byte-identical to the stamp. It is the one
// comparison behind every rebuild — forks, crash recovery, image
// recovery and checkpoint-file resume — so a replay that drifted by one
// trace event, one committed float or one pending event fails here
// instead of silently diverging later. The engine's counters are in
// the error text; the kernel digest already covers them.
func (s Stamp) Check(r *Run) error {
	span := r.Cloud.Tracer().Begin("verify", "checkpoint", r.SimNow())
	defer func() { span.End(r.SimNow()) }()
	if r.offset != s.At {
		return fmt.Errorf("offset mismatch: replayed to %v, stamped %v", r.offset, s.At)
	}
	if got := DigestTrace(r.trace); len(r.trace) != s.TraceLen || got != s.TraceDigest {
		return fmt.Errorf("trace mismatch at %v: replayed %d events digest %s, stamped %d, %s",
			s.At, len(r.trace), got, s.TraceLen, s.TraceDigest)
	}
	if ks := r.Cloud.KernelState(); ks.Digest != s.KernelDigest {
		return fmt.Errorf("kernel digest mismatch at %v: replayed %s (clock %v, %d events scheduled, %d fired, %d pending), stamped %s",
			s.At, ks.Digest, ks.Now, ks.Seq, ks.Fired, ks.Pending, s.KernelDigest)
	}
	return nil
}

// Checkpoint is a forkable mid-scenario restore point.
type Checkpoint struct {
	// Spec is the scenario driving the run with its install-time fault
	// list only. Faults injected after install are in Injections — the
	// install trace event records the timeline action count, so a
	// replay must install exactly the actions the original install saw
	// and re-enact injections at their logged offsets.
	Spec Spec
	// Injections replays the run's post-install Inject history, in
	// order, each at the offset it originally happened.
	Injections []Injection
	// Stamp is the capture every fork must reproduce; Stamp.At is the
	// timeline offset the capture was taken at.
	Stamp
}

// Checkpoint captures the run at its current offset as a forkable
// restore point. The run is paused (between RunTo slices); capture is
// read-only, so the checkpointed run continues byte-identically to an
// unobserved one — TestCheckpointResumeByteIdentical pins both halves
// of that claim.
func (r *Run) Checkpoint() *Checkpoint {
	spec := r.Spec
	// Split the live fault list back into install-time faults (kept on
	// the spec) and the injection log (replayed separately by Fork).
	// Neither slice may share backing storage with the live run or with
	// other forks: each fork Injects its own divergent future, and a
	// shared array would let one fork's append overwrite another's
	// recorded fault.
	base := len(r.Spec.Faults) - len(r.injections)
	spec.Faults = append([]Fault(nil), r.Spec.Faults[:base]...)
	return &Checkpoint{
		Spec:       spec,
		Injections: append([]Injection(nil), r.injections...),
		Stamp:      r.Stamp(),
	}
}

// Fingerprint identifies the captured machine for caching and sharing:
// the fleet shape key of the spec's cloud composed with the kernel
// digest. Two checkpoints with equal fingerprints build the same fabric
// and restore the same simulated machine, so a base-image registry can
// key on it directly.
func (c *Checkpoint) Fingerprint() string {
	return c.Spec.Cloud.ShapeKey() + "@" + c.KernelDigest
}

// Fork rebuilds the checkpointed run from its spec, replays it to the
// capture offset and checks the stamp. The returned run is independent
// of the original and of every other fork — its own cloud, image
// registry and fault list — so inject divergent faults with Inject,
// then Execute to finish its timeline.
func (c *Checkpoint) Fork() (*Run, error) { return c.ForkTraced(nil) }

// ForkTraced is Fork with a span tracer attached to the fresh cloud
// before the scenario is installed, so the re-enactment itself — every
// RunTo and flush of the replayed history, plus one enclosing
// "fork-reenact" span over install and replay — lands on the trace
// timeline. Tracing never perturbs the replay: the fork must still
// reproduce the stamp byte-for-byte.
func (c *Checkpoint) ForkTraced(tr *obs.Tracer) (*Run, error) {
	spec := c.Spec
	// Fresh fault-list storage per fork (see Checkpoint): a fork's
	// Inject must never write into the checkpoint's — or a sibling
	// fork's — array.
	spec.Faults = append([]Fault(nil), c.Spec.Faults...)
	r, err := rebuild(spec, c.Injections, c.At, tr)
	if err != nil {
		return nil, err
	}
	if err := c.Check(r); err != nil {
		r.Cloud.Close()
		return nil, fmt.Errorf("scenario %s: fork: %w", c.Spec.Name, err)
	}
	return r, nil
}

// rebuild is the one build-and-replay path behind New, Branch, Fork
// and ReplayRecipe: build the spec's cloud through core.New, attach the
// tracer, install the scenario and re-enact the injection history to
// the target offset inside one "fork-reenact" span. The caller checks
// the result against whatever stamp it holds.
func rebuild(spec Spec, injections []Injection, at time.Duration, tr *obs.Tracer) (*Run, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if at < 0 || at > spec.Duration {
		return nil, fmt.Errorf("scenario %s: offset %v outside the run duration %v", spec.Name, at, spec.Duration)
	}
	buildStart := time.Now()
	cloud, err := core.New(spec.Cloud)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: building cloud: %w", spec.Name, err)
	}
	cloud.SetTracer(tr)
	span := tr.Begin("fork-reenact", "checkpoint", 0)
	r, err := Install(cloud, spec)
	if err == nil {
		r.buildWall = time.Since(buildStart)
		err = r.replayHistory(injections, at)
	}
	span.End(sim.Time(at))
	if err != nil {
		cloud.Close()
		return nil, err
	}
	return r, nil
}

// replayHistory re-enacts a logged injection history on a freshly
// installed run and lands it paused at the target offset: advance to
// each injection's logged offset, inject there — exactly as the
// original run did, so the replayed action ordering (and the action
// count the install event recorded) match byte-for-byte — then run on
// to at. Never call RunTo when the replay already stands at the target
// offset: an action injected at exactly its injection instant was
// pending at the capture, and a same-offset RunTo would execute it.
func (r *Run) replayHistory(injections []Injection, at time.Duration) error {
	for _, inj := range injections {
		if r.offset < inj.At {
			if err := r.RunTo(inj.At); err != nil {
				return err
			}
		}
		if err := r.Inject(inj.Fault); err != nil {
			return err
		}
	}
	if r.offset < at {
		return r.RunTo(at)
	}
	return nil
}

// ReplayRecipe rebuilds a persisted replay recipe — spec, injection
// history, offset — into a run paused at the recipe's offset: the
// durable image/session store's recovery primitive. It takes the same
// path as Fork; the caller holds the journaled Stamp and must Check the
// rebuilt run against it before trusting it.
func ReplayRecipe(spec Spec, injections []Injection, at time.Duration) (*Run, error) {
	return rebuild(spec, injections, at, nil)
}

// Branch builds the spec's cloud, drives the scenario to the given
// offset, and returns both the paused run and a checkpoint forked
// futures can restart from — the one-call entry point for bisection
// and A/B experiments. The returned run owns the cloud; close it when
// done.
func Branch(spec Spec, at time.Duration) (*Run, *Checkpoint, error) {
	r, err := rebuild(spec, nil, at, nil)
	if err != nil {
		return nil, nil, err
	}
	return r, r.Checkpoint(), nil
}
