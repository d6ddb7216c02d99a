// The cross-layer KernelState fingerprint: the engine's explicit
// scheduler state (clock, sequence counter, every pending event's
// (time, seq) identity), netsim's span-anchored flow accounting and
// link state, the SDN label table and route-cache epoch statistics,
// and the energy layer's span-anchored meter integrals — each written
// by its own layer in a deterministic byte-exact form and hashed
// together. Because the whole kernel is deterministic, the same
// construction plus the same driving history reproduces this
// fingerprint bit for bit; the scenario layer's Stamp pairs it with the
// trace digest and the timeline offset, and checks every rebuilt run
// (fork, crash recovery, checkpoint-file resume) against it.
package core

import (
	"crypto/sha256"
	"encoding/hex"

	"repro/internal/sim"
)

// KernelState is the cross-layer fingerprint of a cloud's simulated
// state at one instant: the engine's headline counters in the clear
// (for error messages and checkpoint files) and the SHA-256 of the
// full layer-by-layer state rendering. Two clouds with equal
// KernelState values are — to the resolution of every committed float,
// every pending event identity and every label binding — the same
// simulated machine.
type KernelState struct {
	Now     sim.Time
	Seq     uint64
	Fired   uint64
	Pending int
	Digest  string
}

// KernelState captures the fingerprint of the current simulated state.
// The cloud must be settled (between Run slices); capture is read-only
// apart from an idempotent flush of already-scheduled rate work, so a
// checkpointed run continues exactly as an unobserved one would.
// The caller must not hold Mu.
func (c *Cloud) KernelState() KernelState {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	span := c.tracer.Begin("kernel-state", "checkpoint", c.Engine.Now())
	defer func() { span.End(c.Engine.Now()) }()
	h := sha256.New()
	c.Engine.WriteState(h)
	c.Net.WriteState(h)
	c.Ctrl.WriteState(h)
	c.Meter.WriteState(h, c.Engine.Now())
	return KernelState{
		Now:     c.Engine.Now(),
		Seq:     c.Engine.Seq(),
		Fired:   c.Engine.Fired(),
		Pending: c.Engine.Pending(),
		Digest:  hex.EncodeToString(h.Sum(nil)),
	}
}
