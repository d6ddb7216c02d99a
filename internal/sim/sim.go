// Package sim provides the deterministic discrete-event simulation engine
// that drives every simulated subsystem of the PiCloud: virtual time, a
// pending-event scheduler, cancellable timers and a seeded random source.
//
// All simulated activity (CPU scheduling, network flows, migrations,
// workload arrivals) is expressed as events on a single Engine so that a
// whole-cloud run is a totally ordered, reproducible sequence. Wall-clock
// time never enters simulation results.
//
// Two schedulers implement the same exact (time, sequence) total order:
// the default two-level calendar ladder (calendar.go), whose pending set
// is an explicit walkable value, and the seed binary heap kept behind
// SetClassicHeap as the ablation and cross-check mode. Event traces are
// byte-identical under either.
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"
)

// Time is a point in virtual time, measured as an offset from the start of
// the simulation. The zero Time is the simulation epoch.
type Time time.Duration

// Duration re-exports time.Duration for readability in APIs that take
// virtual durations.
type Duration = time.Duration

// String formats the virtual time as a duration offset from the epoch.
func (t Time) String() string { return time.Duration(t).String() }

// Add returns the time shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the time as floating-point seconds since the epoch.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// ErrStopped is returned by Run variants when the engine was explicitly
// stopped before the run condition was met.
var ErrStopped = errors.New("sim: engine stopped")

// Event is a cancellable handle to a scheduled callback, returned by the
// scheduling methods. It is a small value — copy it freely. The zero
// Event is inert: Cancel on it reports false.
//
// Handles are generation-checked: the engine recycles the underlying
// event storage once an event fires or is discarded, so a stale handle
// held across the fire can never cancel an unrelated later event.
type Event struct {
	n   *eventNode
	gen uint64
	at  Time
}

// At returns the virtual time the event fires (or would have fired).
func (e Event) At() Time { return e.at }

// Cancel prevents the event from firing. Cancelling an event that already
// fired or was already cancelled is a no-op. Cancel reports whether the
// event was still pending.
func (e Event) Cancel() bool {
	n := e.n
	if n == nil || n.gen != e.gen || n.canceled || n.index < 0 {
		return false
	}
	n.canceled = true
	return true
}

// eventNode is the engine-owned storage behind an Event handle. Nodes are
// pooled: after firing (or being discarded while cancelled) a node's
// generation is bumped and it returns to the engine free list, so steady
// event churn allocates nothing.
type eventNode struct {
	at       Time
	seq      uint64
	index    int // scheduler slot (heap index / calendar stored marker), -1 once removed
	gen      uint64
	canceled bool
	fn       func()
}

// scheduler is the engine's pending-event store. Implementations must
// surface nodes in exact (time, sequence) order — cancelled tombstones
// included, which the engine discards on the pop path — and support
// non-destructive iteration for state capture.
type scheduler interface {
	push(n *eventNode)
	// peekMin returns the earliest stored node without removing it, or
	// nil when empty.
	peekMin() *eventNode
	// popMin removes and returns the earliest stored node, or nil.
	popMin() *eventNode
	size() int
	// forEach visits every stored node in unspecified order.
	forEach(fn func(*eventNode))
	// drain removes and returns every stored node in unspecified order
	// (scheduler migration).
	drain() []*eventNode
}

// eventQueue is a min-heap of events ordered by (time, sequence).
type eventQueue []*eventNode

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	e := x.(*eventNode)
	e.index = len(*q)
	*q = append(*q, e)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

// heapQueue adapts the seed binary heap to the scheduler interface —
// the SetClassicHeap ablation mode.
type heapQueue struct{ q eventQueue }

func (h *heapQueue) push(n *eventNode) { heap.Push(&h.q, n) }

func (h *heapQueue) peekMin() *eventNode {
	if len(h.q) == 0 {
		return nil
	}
	return h.q[0]
}

func (h *heapQueue) popMin() *eventNode {
	if len(h.q) == 0 {
		return nil
	}
	return heap.Pop(&h.q).(*eventNode)
}

func (h *heapQueue) size() int { return len(h.q) }

func (h *heapQueue) forEach(fn func(*eventNode)) {
	for _, n := range h.q {
		fn(n)
	}
}

func (h *heapQueue) drain() []*eventNode {
	out := append([]*eventNode(nil), h.q...)
	for i := range h.q {
		h.q[i] = nil
		out[i].index = -1
	}
	h.q = h.q[:0]
	return out
}

// Engine is a deterministic discrete-event simulator. The zero value is
// not usable; construct with NewEngine. Engine is not safe for concurrent
// use: external goroutines (e.g. HTTP handlers) must serialise access via
// their own lock, which is how the management plane integrates.
type Engine struct {
	now     Time
	sched   scheduler
	classic bool
	seq     uint64
	rng     *rand.Rand
	stopped bool
	fired   uint64
	free    []*eventNode

	// tombstones counts cancelled events discarded on the pop/peek
	// paths — the observable face of Event.Cancel, which only flags the
	// node. Telemetry only: not part of WriteState, so observing it can
	// never shift a kernel fingerprint.
	tombstones uint64
}

// NewEngine returns an engine at the epoch using the given RNG seed.
// The same seed always yields the same event interleaving. The pending
// set lives in the two-level calendar scheduler; SetClassicHeap restores
// the seed binary heap.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed)), sched: newCalendarQueue()}
}

// SetClassicHeap switches the pending-event store between the default
// calendar ladder (false) and the seed binary min-heap (true), migrating
// any queued events. Both schedulers realise the identical (time,
// sequence) total order, so traces are byte-identical either way — the
// knob exists for ablation benchmarks and the differential gates, the
// scheduler mirror of the solver's FullRecompute and the accounting's
// EagerAdvance.
func (e *Engine) SetClassicHeap(v bool) {
	if v == e.classic {
		return
	}
	var ns scheduler
	if v {
		ns = &heapQueue{}
	} else {
		ns = newCalendarQueue()
	}
	for _, n := range e.sched.drain() {
		ns.push(n)
	}
	e.sched, e.classic = ns, v
}

// ClassicHeap reports whether the seed binary heap is in use.
func (e *Engine) ClassicHeap() bool { return e.classic }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Seq returns the number of events scheduled so far (the sequence
// counter behind the total order) — part of the engine's explicit state.
func (e *Engine) Seq() uint64 { return e.seq }

// Rand returns the engine's deterministic random source. All stochastic
// model decisions must draw from this source to preserve reproducibility.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events waiting in the queue, including
// cancelled events not yet discarded.
func (e *Engine) Pending() int { return e.sched.size() }

// SchedStats is a read-only snapshot of the scheduler's operational
// counters for the observability layer: everything here is either
// already part of the engine's explicit state (scheduled, fired,
// pending) or a pure telemetry counter outside WriteState (tombstones,
// calendar shape), so sampling it cannot perturb a run.
type SchedStats struct {
	Now        Time
	Scheduled  uint64 // events scheduled so far (the sequence counter)
	Fired      uint64 // events executed
	Pending    int    // queued, including undiscarded tombstones
	Tombstones uint64 // cancelled events discarded on pop/peek
	Classic    bool   // seed binary heap in use (ablation mode)

	// Calendar shape; zero when the classic heap is active.
	Buckets  int    // current bucket count
	WidthLog int    // log2 of the bucket day width in ns
	Reshapes uint64 // adaptive rebuilds since construction
}

// SchedStats samples the scheduler counters. Like all engine methods it
// must be called from the goroutine that owns the engine (or under the
// cloud lock).
func (e *Engine) SchedStats() SchedStats {
	st := SchedStats{
		Now:        e.now,
		Scheduled:  e.seq,
		Fired:      e.fired,
		Pending:    e.sched.size(),
		Tombstones: e.tombstones,
		Classic:    e.classic,
	}
	if cq, ok := e.sched.(*calendarQueue); ok {
		st.Buckets = len(cq.buckets)
		st.WidthLog = int(cq.widthLog)
		st.Reshapes = cq.reshapes
	}
	return st
}

// PendingEvent is the externally visible identity of one queued event:
// its fire time and sequence number — everything the (time, sequence)
// total order is built from.
type PendingEvent struct {
	At  Time
	Seq uint64
}

// PendingEvents returns the live (non-cancelled) queued events in fire
// order. The walk is non-destructive — cancelled tombstones are skipped,
// not discarded — so capturing the pending set never perturbs a run.
func (e *Engine) PendingEvents() []PendingEvent {
	out := make([]PendingEvent, 0, e.sched.size())
	e.sched.forEach(func(n *eventNode) {
		if !n.canceled {
			out = append(out, PendingEvent{At: n.at, Seq: n.seq})
		}
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// WriteState writes the engine's explicit time state — clock, sequence
// counter, fired count and the (time, sequence) identity of every live
// pending event — in a deterministic text form. It is one layer of the
// cross-layer kernel fingerprint behind core.Cloud.KernelState: two
// engines that executed the same event history write the same bytes.
func (e *Engine) WriteState(w io.Writer) {
	fmt.Fprintf(w, "sim now=%d seq=%d fired=%d\n", int64(e.now), e.seq, e.fired)
	for _, p := range e.PendingEvents() {
		fmt.Fprintf(w, "ev %d %d\n", int64(p.At), p.Seq)
	}
}

// Schedule queues fn to run after delay d. A negative delay is treated as
// zero (fires at the current time, after already-queued events at that
// time). It returns an Event handle for cancellation.
func (e *Engine) Schedule(d Duration, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return e.ScheduleAt(e.now.Add(d), fn)
}

// ScheduleAt queues fn to run at absolute virtual time t. Times in the
// past are clamped to the current time.
func (e *Engine) ScheduleAt(t Time, fn func()) Event {
	if fn == nil {
		panic("sim: ScheduleAt with nil function")
	}
	if t < e.now {
		t = e.now
	}
	e.seq++
	var n *eventNode
	if k := len(e.free); k > 0 {
		n = e.free[k-1]
		e.free[k-1] = nil
		e.free = e.free[:k-1]
	} else {
		n = &eventNode{}
	}
	n.at = t
	n.seq = e.seq
	n.canceled = false
	n.fn = fn
	e.sched.push(n)
	return Event{n: n, gen: n.gen, at: t}
}

// release returns a node to the free list, invalidating outstanding
// handles by bumping the generation.
func (e *Engine) release(n *eventNode) {
	n.gen++
	n.fn = nil
	n.canceled = false
	n.index = -1
	e.free = append(e.free, n)
}

// Stop halts the current Run call after the in-flight event completes.
func (e *Engine) Stop() { e.stopped = true }

// Step executes the next pending event, advancing virtual time to it.
// It reports whether an event was executed (false when the queue is
// empty). Cancelled events are discarded without executing.
func (e *Engine) Step() bool {
	for {
		ev := e.sched.popMin()
		if ev == nil {
			return false
		}
		if ev.canceled {
			e.tombstones++
			e.release(ev)
			continue
		}
		if ev.at < e.now {
			panic(fmt.Sprintf("sim: event time %v before now %v", ev.at, e.now))
		}
		e.now = ev.at
		e.fired++
		fn := ev.fn
		e.release(ev)
		fn()
		return true
	}
}

// Run executes events until the queue drains or Stop is called. It
// returns ErrStopped if stopped early, nil otherwise.
func (e *Engine) Run() error {
	e.stopped = false
	for !e.stopped {
		if !e.Step() {
			return nil
		}
	}
	return ErrStopped
}

// RunUntil executes events with time ≤ t, then advances the clock to
// exactly t. Events scheduled beyond t remain queued. It returns
// ErrStopped if Stop was called during the run.
func (e *Engine) RunUntil(t Time) error {
	e.stopped = false
	for !e.stopped {
		next := e.peek()
		if next == nil {
			break
		}
		if next.at > t {
			break
		}
		e.Step()
	}
	if e.stopped {
		return ErrStopped
	}
	if e.now < t {
		e.now = t
	}
	return nil
}

// RunFor advances the simulation by d of virtual time.
func (e *Engine) RunFor(d Duration) error { return e.RunUntil(e.now.Add(d)) }

// peek returns the earliest non-cancelled event without removing it,
// discarding cancelled tombstones it encounters at the front of the
// schedule (the cancelled-on-top compaction both schedulers share).
func (e *Engine) peek() *eventNode {
	for {
		ev := e.sched.peekMin()
		if ev == nil {
			return nil
		}
		if !ev.canceled {
			return ev
		}
		e.sched.popMin()
		e.tombstones++
		e.release(ev)
	}
}

// NextEventAt returns the time of the earliest pending event and true, or
// the zero time and false when the queue is empty.
func (e *Engine) NextEventAt() (Time, bool) {
	ev := e.peek()
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}

// Ticker invokes fn every period until cancelled. The first invocation
// happens one period from now.
type Ticker struct {
	engine  *Engine
	period  Duration
	fn      func(Time)
	ev      Event
	stopped bool
}

// NewTicker schedules fn to run every period of virtual time. period must
// be positive.
func (e *Engine) NewTicker(period Duration, fn func(Time)) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{engine: e, period: period, fn: fn}
	t.arm()
	return t
}

func (t *Ticker) arm() {
	t.ev = t.engine.Schedule(t.period, func() {
		if t.stopped {
			return
		}
		t.fn(t.engine.Now())
		if !t.stopped {
			t.arm()
		}
	})
}

// Stop cancels future ticks.
func (t *Ticker) Stop() {
	t.stopped = true
	t.ev.Cancel()
}
