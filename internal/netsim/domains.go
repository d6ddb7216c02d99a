// Congestion domains: the incremental, locality-aware half of the rate
// allocator. Max-min fairness couples two flows only when they share a
// link, so the live flows partition into connected components over the
// link↔flow incidence graph — "congestion domains". A mutation (flow
// start/end, link up/down, shaping change, re-path) dirties only the
// domain(s) it touches, and flush re-solves exactly those, leaving the
// rest of the fabric untouched. On the paper's mostly-rack-local gravity
// workloads this turns the former whole-fabric progressive fill into a
// handful of rack-sized solves per virtual instant.
//
// Invariants:
//
//   - Every live flow belongs to exactly one domain, reachable through
//     f.dom (a union-find node; find() resolves the root).
//   - For every link with at least one live flow, l.dom resolves to the
//     domain all of that link's flows belong to. Links with no live
//     flows carry a stale pointer that is never consulted.
//   - The partition always equals the true connected components at
//     flush time: merges happen eagerly (StartFlow/SetPath union the
//     domains of every path link), splits lazily (a flow ending flags
//     its root `rebuild`, and flush recomputes components inside that
//     domain only).
//
// Determinism contract: domains are rebuilt and solved in admission
// order of their first live flow, the per-domain fill arithmetic is a
// pure function of the domain's own links and flows, and completion
// events are (re)armed in one global admission-order pass gated on the
// flow's rate actually changing. A full re-solve of every domain
// (KernelMode.FullRecompute) therefore produces byte-identical traces to the
// incremental path — the property TestIncrementalMatchesFullSolver
// pins across the whole canned-scenario catalog.
package netsim

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// domain is a union-find node for one congestion domain. Only the root
// of a set carries meaningful flags and membership; find() resolves it.
type domain struct {
	parent *domain
	rank   int
	// flows lists member flows. It may transiently hold ended flows,
	// duplicate entries, and flows re-pathed into another domain; solve
	// and rebuild skip and compact those lazily.
	flows []*Flow
	// dirty marks the domain for re-solving at the next flush.
	dirty bool
	// rebuild marks that membership may have shrunk (a flow ended or
	// was re-pathed away), so the domain's connected components must be
	// recomputed before solving.
	rebuild bool
}

// newDomain returns a fresh singleton set.
func newDomain() *domain {
	d := &domain{}
	d.parent = d
	return d
}

// find resolves the set root with path compression.
func (d *domain) find() *domain {
	root := d
	for root.parent != root {
		root = root.parent
	}
	for d != root {
		d.parent, d = root, d.parent
	}
	return root
}

// findRO resolves the set root without path compression. Solve workers
// use it for membership checks: a stale entry in one domain's flow list
// can reference a flow now owned by another domain, and compressing
// that other domain's parent chain from a foreign goroutine would race
// with its owner. Parent pointers are only mutated in the serial phases
// (union, rebuild, claim), so a compression-free walk is safe while the
// pool runs.
func (d *domain) findRO() *domain {
	for d.parent != d {
		d = d.parent
	}
	return d
}

// unionDomains merges the sets holding a and b and returns the new
// root. Flow membership and the dirty/rebuild flags migrate to the
// winning root, which joins the dirty worklist if it picks dirtiness up
// from the loser (every dirty root must be listed exactly while dirty).
func (n *Network) unionDomains(a, b *domain) *domain {
	a, b = a.find(), b.find()
	if a == b {
		return a
	}
	if a.rank < b.rank {
		a, b = b, a
	}
	if a.rank == b.rank {
		a.rank++
	}
	b.parent = a
	a.flows = append(a.flows, b.flows...)
	b.flows = nil
	if b.dirty && !a.dirty {
		a.dirty = true
		n.dirtyDomains = append(n.dirtyDomains, a)
	}
	a.rebuild = a.rebuild || b.rebuild
	b.dirty, b.rebuild = false, false
	return a
}

// markDomainDirty queues d's root for re-solving and arms the
// end-of-instant flush.
func (n *Network) markDomainDirty(d *domain) {
	if r := d.find(); !r.dirty {
		r.dirty = true
		n.dirtyDomains = append(n.dirtyDomains, r)
	}
	n.markDirty()
}

// adoptFlow places a newly admitted (or re-pathed) flow into the domain
// structure: the domains of every path link that already carries live
// flows are merged, the flow joins the result, and every path link is
// re-pointed at it. Callers must add f to the links' flow maps first.
func (n *Network) adoptFlow(f *Flow, links []*Link) {
	var dom *domain
	for _, l := range links {
		// l.flows already contains f; another entry means live company.
		if len(l.flows) > 1 {
			if dom == nil {
				dom = l.dom.find()
			} else {
				dom = n.unionDomains(dom, l.dom)
			}
		}
	}
	if dom == nil {
		dom = newDomain()
	}
	dom.flows = append(dom.flows, f)
	f.dom = dom
	for _, l := range links {
		l.dom = dom
	}
	n.markDomainDirty(dom)
}

// parallelSolveMinFlows is the auto-mode fan-out threshold: a flush
// whose dirty domains hold fewer member flows than this is solved
// serially — goroutine handoff costs more than rack-sized fills. The
// threshold only bites in auto mode (KernelMode.SolveWorkers == 0); an explicit
// worker count forces fan-out so the gates can exercise the pool on
// small fabrics. BenchmarkParallelSolve locates the crossover.
const parallelSolveMinFlows = 4096

// solveDirty is the flush body: rebuild split-suspect domains, claim
// the unique dirty roots, solve them — fanned out to a worker pool when
// the flush carries enough work — then re-arm completion events for
// flows whose rate moved, in admission order.
//
// The worklist makes one virtual instant cost O(dirty domains), not
// O(live flows) — the incremental contract. Determinism under fan-out
// rests on three facts: the claim pass is a deterministic partition
// (admission-ordered worklist, deduped by the dirty flag); domains are
// disjoint by construction, so each solve reads and writes only state
// its worker owns and the arithmetic is a pure per-domain function; and
// completion events are re-armed in one serial admission-ordered pass,
// so the engine's event sequence is independent of which goroutine
// solved what, and when. Serial, parallel, and any GOMAXPROCS produce
// byte-identical traces (TestParallelSolveMatchesSerial).
func (n *Network) solveDirty() {
	span, profStart := n.beginFlushObs()
	if n.fullRecompute {
		n.enqueueAllDomains()
	}
	// Rebuilds append their fresh components to the worklist, so the
	// loop indexes rather than ranges.
	for i := 0; i < len(n.dirtyDomains); i++ {
		if r := n.dirtyDomains[i].find(); r.dirty && r.rebuild {
			n.rebuildDomain(r)
		}
	}
	// Claim pass: resolve the worklist to its unique dirty roots. Done
	// serially so path compression and the dirty flags are settled
	// before any worker touches the trees.
	claimed := n.claimed[:0]
	for i := 0; i < len(n.dirtyDomains); i++ {
		if r := n.dirtyDomains[i].find(); r.dirty {
			r.dirty = false
			claimed = append(claimed, r)
		}
		n.dirtyDomains[i] = nil
	}
	n.dirtyDomains = n.dirtyDomains[:0]

	now := n.engine.Now()
	var solveStart time.Time
	if n.stats.profEnabled {
		solveStart = time.Now()
	}
	if workers := n.solveFanout(claimed); workers > 1 {
		n.stats.parallel++
		if workers > n.stats.maxFanout {
			n.stats.maxFanout = workers
		}
		n.solveParallel(claimed, now, workers)
	} else {
		for _, d := range claimed {
			n.passSeq++
			n.solveDomain(d, now, n.passSeq, &n.scratch)
		}
		n.changedFlows = append(n.changedFlows, n.scratch.changed...)
		clearFlows(&n.scratch.changed)
	}
	var solveWall time.Duration
	if n.stats.profEnabled {
		solveWall = time.Since(solveStart)
	}
	n.stats.flushes++
	n.stats.domains += uint64(len(claimed))
	for i := range claimed {
		claimed[i] = nil
	}
	n.claimed = claimed[:0]
	n.rescheduleChanged()
	n.endFlushObs(span, profStart, solveWall)
}

// clearFlows nils and truncates a flow slice, dropping references for
// the GC while keeping the capacity.
func clearFlows(s *[]*Flow) {
	for i := range *s {
		(*s)[i] = nil
	}
	*s = (*s)[:0]
}

// solveFanout decides the worker count for this flush. Serial (1) when
// forced by the knob, when fewer than two domains are dirty, or — in
// auto mode — when the claimed domains hold too few flows for goroutine
// handoff to pay for itself.
func (n *Network) solveFanout(claimed []*domain) int {
	if n.serialSolve || len(claimed) < 2 {
		return 1
	}
	w := n.solveWorkers
	if w == 0 {
		work := 0
		for _, d := range claimed {
			work += len(d.flows)
		}
		if work < parallelSolveMinFlows {
			return 1
		}
		// At least two workers even on a single-core box, so the
		// parallel path (and its determinism) is exercised everywhere —
		// the same policy as the fleet builder's shard pool.
		w = runtime.GOMAXPROCS(0)
		if w < 2 {
			w = 2
		}
	}
	if w > len(claimed) {
		w = len(claimed)
	}
	if w < 2 {
		return 1
	}
	return w
}

// solveParallel fans the claimed domains out to a bounded pool. Pass
// numbers are pre-assigned per domain in claim order so the visited
// markers are deterministic without a shared counter; workers pull the
// next domain off an atomic cursor (assignment order is irrelevant —
// every domain's solve is a pure function of its own state). Each
// worker collects its changed flows privately; the merged list is
// order-fixed by rescheduleChanged's admission-order sort.
func (n *Network) solveParallel(claimed []*domain, now sim.Time, workers int) {
	base := n.passSeq
	n.passSeq += uint64(len(claimed))
	for len(n.workerScratch) < workers {
		n.workerScratch = append(n.workerScratch, &solveScratch{})
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(s *solveScratch) {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(claimed) {
					return
				}
				n.solveDomain(claimed[i], now, base+uint64(i)+1, s)
			}
		}(n.workerScratch[w])
	}
	wg.Wait()
	for _, s := range n.workerScratch[:workers] {
		n.changedFlows = append(n.changedFlows, s.changed...)
		clearFlows(&s.changed)
	}
}

// enqueueAllDomains marks every live domain dirty and lists it on the
// flush worklist (the full-recompute sweep, also behind reallocate()).
func (n *Network) enqueueAllDomains() {
	for _, f := range n.flowOrder {
		if f.ended {
			continue
		}
		if r := f.dom.find(); !r.dirty {
			r.dirty = true
			n.dirtyDomains = append(n.dirtyDomains, r)
		}
	}
}

// rebuildDomain recomputes the connected components among r's surviving
// flows after membership shrank, producing one fresh dirty domain per
// component (each joins the worklist). Links are re-pointed as they are
// claimed; links whose flows all ended are simply never claimed again.
func (n *Network) rebuildDomain(r *domain) {
	n.passSeq++
	pass := n.passSeq
	for _, f := range r.flows {
		if f.ended || f.dom.find() != r {
			continue // ended, duplicate, or re-pathed into another domain
		}
		nd := newDomain()
		nd.dirty = true
		n.dirtyDomains = append(n.dirtyDomains, nd)
		nd.flows = append(nd.flows, f)
		f.dom = nd
		for _, l := range f.path {
			if l.pass == pass {
				l.dom = n.unionDomains(f.dom, l.dom)
			} else {
				l.pass = pass
				l.dom = nd
			}
		}
	}
	r.flows = nil
	r.dirty, r.rebuild = false, false
}

// rateReschedEps is the relative rate change below which a flow's
// pending completion event is left armed rather than re-pushed: the
// event time is still correct to within the same tolerance, and
// skipping the cancel+push pair is what keeps a virtual instant from
// costing O(live flows) heap operations.
const rateReschedEps = 1e-9

// solveDomain runs the progressive-filling max-min fill over one
// domain's flows and links only, after committing each member flow's
// accounting span (the rates are about to be overwritten). The
// arithmetic is a pure function of the domain's own state, so solving a
// clean domain again yields bit-identical rates — the property the
// incremental/full equivalence rests on — and every flow, link and
// scratch buffer it touches is owned by the calling worker, so solves
// of distinct domains can run concurrently without synchronisation.
func (n *Network) solveDomain(d *domain, now sim.Time, pass uint64, s *solveScratch) {
	flows := s.flows[:0]
	for _, f := range d.flows {
		if f.ended {
			continue
		}
		// Membership check first: a stale entry owned by another domain
		// must not be touched at all (its owner may be solving it on
		// another goroutine right now).
		if f.dom.findRO() != d {
			continue
		}
		if f.pass == pass {
			continue
		}
		f.pass = pass
		flows = append(flows, f)
	}
	// Compact the membership list while we have it in hand.
	d.flows = append(d.flows[:0], flows...)

	links := s.links[:0]
	for _, f := range flows {
		for _, l := range f.path {
			if l.pass != pass {
				l.pass = pass
				l.remaining = l.Capacity
				l.activeCount = 0
				links = append(links, l)
			}
		}
	}

	// The fill runs on fillRate scratch; committed state (f.rate, the
	// flow's accounting span) is only touched afterwards, and only for
	// flows whose allocation actually moved. Re-solving a clean domain
	// therefore commits nothing — which is what keeps full-recompute,
	// incremental, serial and parallel runs byte-identical: commit
	// points depend on real rate changes, never on how often a domain
	// happened to be re-solved.
	active := s.active[:0]
	for _, f := range flows {
		f.fillRate = 0
		onDownLink := false
		for _, l := range f.path {
			if !l.up {
				onDownLink = true
				break
			}
		}
		if !onDownLink {
			active = append(active, f)
			for _, l := range f.path {
				l.activeCount++
			}
		}
	}

	for len(active) > 0 {
		inc := math.Inf(1)
		for _, l := range links {
			if l.up && l.activeCount > 0 {
				if share := l.remaining / float64(l.activeCount); share < inc {
					inc = share
				}
			}
		}
		for _, f := range active {
			if f.Spec.RateCapBps > 0 {
				if room := f.Spec.RateCapBps - f.fillRate; room < inc {
					inc = room
				}
			}
		}
		if math.IsInf(inc, 1) {
			// Active flows with no links and no caps cannot occur
			// (paths have ≥1 link), but guard against livelock.
			break
		}
		if inc < 0 {
			inc = 0
		}
		for _, f := range active {
			f.fillRate += inc
		}
		for _, l := range links {
			if l.up {
				l.remaining -= inc * float64(l.activeCount)
			}
		}
		// Freeze flows at saturated links or at their cap.
		kept := active[:0]
		for _, f := range active {
			frozen := false
			if f.Spec.RateCapBps > 0 && f.fillRate >= f.Spec.RateCapBps-1e-9 {
				frozen = true
			}
			if !frozen {
				for _, l := range f.path {
					if l.remaining <= 1e-9 {
						frozen = true
						break
					}
				}
			}
			if frozen {
				for _, l := range f.path {
					l.activeCount--
				}
			} else {
				kept = append(kept, f)
			}
		}
		if len(kept) == len(active) {
			// No flow froze despite a finite increment; avoid livelock.
			break
		}
		active = kept
	}

	// Record the deterministic per-link allocation (capacity minus
	// unfilled remainder) and flag flows whose rate moved enough to
	// need their completion event re-armed.
	for _, l := range links {
		if alloc := l.Capacity - l.remaining; alloc > 0 {
			l.allocated = alloc
		} else {
			l.allocated = 0
		}
	}
	for _, f := range flows {
		if f.fillRate != f.rate {
			// The allocation moved: close the span travelled at the old
			// rate, then switch. This bitwise comparison is the commit
			// gate — sub-ulp "changes" cannot occur (the fill is exact
			// arithmetic over the same inputs), so a clean re-solve
			// never commits.
			n.commitFlow(f, now)
			f.rate = f.fillRate
		}
		if rateChanged(f.schedRate, f.rate) && !f.rateDirty {
			f.rateDirty = true
			s.changed = append(s.changed, f)
		}
	}

	s.flows = flows[:0]
	s.links = links[:0]
	s.active = active[:0]
}

// rateChanged reports whether a flow's allocation moved beyond the
// rescheduling epsilon (relative to the larger of the two rates).
func rateChanged(old, new float64) bool {
	diff := new - old
	if diff < 0 {
		diff = -diff
	}
	limit := old
	if new > limit {
		limit = new
	}
	return diff > rateReschedEps*limit
}

// rescheduleChanged re-arms the completion event of every finite flow
// whose rate actually changed, in admission (flow-ID) order so the
// engine's event sequence — and with it whole-run determinism — is
// independent of which domains were solved, and in what order.
//
// Completion-time invariant: a flow is only ever re-armed at the
// instant its rate changed, so f.remaining is span-committed to now and
// now + remaining/rate is the exact finish estimate. Arming at any
// other instant would compute now + stale_remaining/rate — and even
// with materialised state, re-deriving the division from a different
// anchor point shifts the nanosecond truncation by one ulp now and
// then. That anchor sensitivity is the root cause of the 1 ns
// migration-storm trace drift PR 2 observed: the seed's global solver
// re-armed every finite flow at every recompute (anchoring completions
// at arbitrary mutation instants), the domain solver re-arms only on
// rate changes, and one pre-copy transfer's completion rounded to the
// neighbouring nanosecond. The span-anchored kernel pins the anchor to
// the rate-change instant by construction — the assertion below keeps
// it that way.
func (n *Network) rescheduleChanged() {
	if len(n.changedFlows) == 0 {
		return
	}
	now := n.engine.Now()
	sort.Slice(n.changedFlows, func(i, j int) bool {
		return n.changedFlows[i].ID < n.changedFlows[j].ID
	})
	for _, f := range n.changedFlows {
		if f.ended || !f.rateDirty {
			continue
		}
		f.rateDirty = false
		n.stats.rescheduled++
		f.schedRate = f.rate
		f.complete.Cancel()
		f.complete = sim.Event{}
		if f.Spec.SizeBits <= 0 || f.rate <= 0 {
			continue
		}
		if f.lastCalc != now {
			panic(fmt.Sprintf("netsim: flow %d re-armed with a stale span anchor (%v != %v): completion times must be computed at the rate-change instant",
				f.ID, f.lastCalc, now))
		}
		seconds := f.remaining / f.rate
		d := time.Duration(seconds * float64(time.Second))
		f := f
		f.complete = n.engine.Schedule(d, func() {
			n.advance()
			// Commit the final span, clamp the float drift left by the
			// event-time truncation, and finish.
			n.commitFlow(f, n.engine.Now())
			f.remaining = 0
			n.endFlow(f, EndCompleted)
			n.markDirty()
		})
	}
	for i := range n.changedFlows {
		n.changedFlows[i] = nil
	}
	n.changedFlows = n.changedFlows[:0]
}
