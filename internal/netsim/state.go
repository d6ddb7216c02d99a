// Kernel state capture for checkpointing: a deterministic, byte-exact
// rendering of the network layer's simulated state. Two networks that
// executed the same mutation history write the same bytes — floats are
// written as raw IEEE-754 bit patterns, every walk follows a creation-
// or admission-order list, and the capture is read-only apart from an
// idempotent flush of pending rate work (which a settled instant has
// already performed).
package netsim

import (
	"fmt"
	"io"
	"math"
)

// WriteState writes the span-anchored flow accounting and link state in
// a deterministic text form — one layer of the cross-layer fingerprint
// behind core.Cloud.KernelState. Links are listed in creation order
// and skipped while pristine (up, unshaped, never carried a bit, no
// flows), so megafleet captures scale with activity, not fabric size;
// flows are listed in admission order, committed state only (the
// pending span is a pure function of rate, anchor and the clock, all of
// which are captured).
func (n *Network) WriteState(w io.Writer) {
	n.flush()
	fmt.Fprintf(w, "netsim nodes=%d links=%d active=%d nextID=%d topoEpoch=%d\n",
		len(n.nodes), len(n.linkList), n.active, n.nextID, n.topoEpoch)
	for _, l := range n.linkList {
		if l.up && !l.shaped && l.bitsCarried == 0 && len(l.flows) == 0 {
			continue
		}
		fmt.Fprintf(w, "link %s>%s up=%t shaped=%t cap=%016x lat=%d bits=%016x alloc=%016x flows=%d\n",
			l.From, l.To, l.up, l.shaped,
			math.Float64bits(l.Capacity), int64(l.Latency),
			math.Float64bits(l.bitsCarried), math.Float64bits(l.allocated), len(l.flows))
	}
	for _, f := range n.flowOrder {
		if f.ended {
			continue
		}
		fmt.Fprintf(w, "flow %d %s>%s rate=%016x done=%016x rem=%016x anchor=%d started=%d sched=%016x cap=%016x hops=%d\n",
			f.ID, f.Spec.Src, f.Spec.Dst,
			math.Float64bits(f.rate), math.Float64bits(f.bitsDone), math.Float64bits(f.remaining),
			int64(f.lastCalc), int64(f.started),
			math.Float64bits(f.schedRate), math.Float64bits(f.Spec.RateCapBps), len(f.path))
	}
}
