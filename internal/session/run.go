// The session kernel goroutine and its serialized command mailbox.
//
// A Session's scenario.Run — and through it the whole simulated cloud —
// is owned by exactly one goroutine, started in Manager.adopt and alive
// until Close. Every external operation is a sessCmd sent down the
// mailbox and executed by that goroutine at a paused instant of the
// timeline, so the run's determinism contract never meets a data race:
// HTTP handlers, the gate test and sibling sessions only ever touch the
// mailbox and the subscriber list.
//
// Advance is the long-running command. It drives RunTo in sampling-
// cadence slices, emits one telemetry event per slice, and serves
// queued quick commands (inject, checkpoint, trace, status) at each
// slice boundary — a paused instant like any other — so a session
// streams telemetry and accepts injections while hours of virtual time
// advance. A second advance arriving mid-advance fails with ErrBusy
// rather than queueing ambiguously.
//
// Durability rides the same discipline. When the manager has a store,
// every state-changing command appends a write-ahead record — fsynced
// before the command replies — stamped with the timeline offset and
// the kernel state digest at that paused instant, so recovery can
// re-enact the journal and *prove* the rebuilt kernel byte-identical.
// And because the kernel goroutine is the only one touching the run,
// it is also the failure domain: a panic anywhere in the kernel is
// recovered here, the session transitions to StateFailed with the
// panic recorded, and every later kernel-touching command is refused
// with the reason — one tenant's blown-up what-if never takes the
// daemon (or a sibling session) down with it.
package session

import (
	"errors"
	"fmt"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"repro/internal/cliconfig"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/store"
)

// ErrBusy is returned to commands that arrive while the session is
// mid-advance and cannot queue behind it (a second advance); quick
// commands are served at slice boundaries instead.
var ErrBusy = errors.New("session: advance in progress")

// ErrClosed is returned by commands against a closed session, and by
// an advance that a concurrent DELETE aborted mid-flight (HTTP 409).
var ErrClosed = errors.New("session: closed")

// ErrDraining is returned by an advance interrupted by graceful
// shutdown — the progress so far is journaled and durable; retry the
// advance against the restarted daemon (HTTP 503).
var ErrDraining = errors.New("session: draining for shutdown")

// ErrInvalid marks client mistakes — a malformed or unencodable fault,
// an injection before the current offset — so the HTTP layer can
// answer 400 instead of 500.
var ErrInvalid = errors.New("session: invalid request")

// FailedError is returned by kernel-touching commands against a failed
// session: the recorded panic (or journal failure) that poisoned the
// kernel, refused with HTTP 409 until the session is closed or the
// daemon restarts and re-enacts the journal.
type FailedError struct {
	ID     string
	Reason string
}

func (e *FailedError) Error() string {
	return fmt.Sprintf("session %s failed: %s", e.ID, e.Reason)
}

// Session states, as reported by Status and /v1/healthz.
const (
	StateRunning   = "running"   // kernel goroutine serving commands
	StateDraining  = "draining"  // graceful shutdown yielded the advance
	StateFailed    = "failed"    // kernel panicked or journal write failed
	StateRecovered = "recovered" // rebuilt from the journal, digest verified,
	// no command served yet (flips to running on the first advance)
	StateClosed = "closed"
)

// sessCmd is one mailbox entry: either an advance to a target offset,
// a quick command (fn), or a close.
type sessCmd struct {
	kind  string // "advance", "cmd", "close"
	to    time.Duration
	fn    func(*scenario.Run) (any, error)
	reply chan sessReply
}

type sessReply struct {
	val any
	err error
}

// Session is one tenant's live run: a scenario kernel advancing through
// virtual time under its own goroutine.
type Session struct {
	ID        string
	Scenario  string
	BaseImage string

	mgr *Manager
	// Service counters: exported as pisim_session_<name>_total with a
	// session label, and returned in Status.Metrics.
	advances, injects, checkpoints, forks, events, eventsDropped obs.Counter
	// rootReq is the wire spec the session's whole history resolves
	// from — its own spec for cold builds, the base image's root spec
	// for forks — so recipes journaled for this session (and for images
	// checkpointed off it) always ground in a decodable SpecRequest.
	rootReq cliconfig.SpecRequest
	// jr is the session's write-ahead journal (nil without a store).
	// Appends happen on the kernel goroutine (plus the one create/fork
	// record written before the goroutine starts), each fsynced before
	// the triggering command replies.
	jr      *store.Journal
	cmds    chan sessCmd
	done    chan struct{}
	drainCh <-chan struct{}

	mu       sync.Mutex
	subs     map[chan Event]struct{}
	offset   time.Duration
	duration time.Duration
	closed   bool
	state    string
	failure  string
	// durableOffset trails offset by the work since the last journal
	// record — the "journal lag" health surfaces (always 0 at a paused
	// instant; mid-advance it is the un-journaled progress).
	durableOffset   time.Duration
	lastTraceLen    int
	lastTraceDigest string
	// kstats is the kernel-stats snapshot taken at the last paused
	// instant (adopt, then every advance slice boundary). HTTP-side
	// scrapes read this cache; they never touch the kernel itself, so a
	// mid-advance scrape is safe and lag-bounded by one slice.
	kstats      core.KernelStats
	kstatsValid bool

	// Latency instruments on the manager's obs registry, labelled with
	// this session's id: wall time per advance slice, wall time per
	// journal append+fsync.
	sliceHist   *obs.Histogram
	journalHist *obs.Histogram
}

// loop is the session kernel goroutine: it owns r exclusively.
func (s *Session) loop(r *scenario.Run) {
	defer close(s.done)
	defer func() {
		// A failed kernel may hold arbitrary broken invariants; touch
		// nothing on the way out. (Cloud.Close only stops the manager's
		// REST shim, but the principle is: failed ⇒ hands off.)
		if !s.isFailed() {
			r.Cloud.Close()
		}
		if s.jr != nil {
			_ = s.jr.Close()
		}
	}()
	for cmd := range s.cmds {
		if cmd.kind == "close" {
			s.journalClose()
			s.setState(StateClosed)
			cmd.reply <- sessReply{}
			return
		}
		if reason, failed := s.failureInfo(); failed {
			cmd.reply <- sessReply{err: &FailedError{ID: s.ID, Reason: reason}}
			continue
		}
		s.exec(r, cmd)
	}
}

// exec runs one mailbox command with the panic firewall: a panic
// anywhere below marks the session failed (reason + stack recorded),
// answers the command with the failure, and keeps the daemon — and
// every sibling session — alive.
func (s *Session) exec(r *scenario.Run, cmd sessCmd) {
	defer func() {
		if p := recover(); p != nil {
			reason := fmt.Sprintf("kernel panic: %v", p)
			s.markFailed(reason, debug.Stack())
			cmd.reply <- sessReply{err: &FailedError{ID: s.ID, Reason: reason}}
		}
	}()
	switch cmd.kind {
	case "advance":
		cmd.reply <- sessReply{err: s.advance(r, cmd.to)}
	default:
		v, err := cmd.fn(r)
		cmd.reply <- sessReply{val: v, err: err}
	}
}

// advance drives the run to the target offset in sampling-cadence
// slices, emitting telemetry and serving queued quick commands at each
// paused slice boundary. However it ends — completion, close abort,
// drain — the offset actually reached is journaled before it returns,
// so the durable history never trails a reply.
func (s *Session) advance(r *scenario.Run, to time.Duration) error {
	if to > r.Spec.Duration {
		to = r.Spec.Duration
	}
	slice := r.Spec.SampleEvery
	if slice <= 0 {
		slice = time.Second
	}
	s.advances.Inc()
	moved := false
	for r.Offset() < to {
		next := r.Offset() + slice
		if next > to {
			next = to
		}
		sliceStart := time.Now()
		span := r.Cloud.Tracer().Begin("advance-slice", "session", r.SimNow())
		err := r.RunTo(next)
		span.End(r.SimNow())
		if s.sliceHist != nil {
			s.sliceHist.Observe(time.Since(sliceStart).Seconds())
		}
		if err != nil {
			s.emit(Event{Type: "lifecycle", Offset: int64(r.Offset()), Kind: "error", Detail: err.Error()})
			if jerr := s.journalAdvance(r); jerr != nil {
				return jerr
			}
			return err
		}
		moved = true
		s.setOffset(r.Offset())
		s.sampleKernel(r)
		s.emitTelemetry(r)
		// Drain first: the journal append must be durable before the
		// no-op barrier Manager.Drain queued behind this boundary is
		// answered, so "Drain returned" implies "every session's
		// progress is on disk".
		select {
		case <-s.drainCh:
			if err := s.journalAdvance(r); err != nil {
				return err
			}
			s.setState(StateDraining)
			s.emit(Event{Type: "lifecycle", Offset: int64(r.Offset()), Kind: "draining",
				Detail: "advance yielded for shutdown at " + r.Offset().String()})
			return ErrDraining
		default:
		}
		if stop := s.serveQueued(r); stop {
			if err := s.journalAdvance(r); err != nil {
				return err
			}
			return ErrClosed
		}
		if reason, failed := s.failureInfo(); failed {
			// A quick command served at this boundary blew the kernel up;
			// the journal keeps its last good record (the suspect state is
			// exactly what recovery must not trust).
			return &FailedError{ID: s.ID, Reason: reason}
		}
	}
	if moved {
		if err := s.journalAdvance(r); err != nil {
			return err
		}
	}
	if s.stateIs(StateRecovered) {
		s.setState(StateRunning)
	}
	s.emit(Event{Type: "lifecycle", Offset: int64(r.Offset()), Kind: "advanced",
		Detail: "paused at " + r.Offset().String()})
	if r.Finished() {
		s.emit(Event{Type: "lifecycle", Offset: int64(r.Offset()), Kind: "finished",
			Detail: "timeline complete"})
	}
	return nil
}

// serveQueued drains the mailbox non-blockingly at a paused slice
// boundary: quick commands execute in arrival order, a nested advance
// is refused with ErrBusy, and a close aborts the advance (the caller
// gets ErrClosed; the loop sees the close on its next receive).
func (s *Session) serveQueued(r *scenario.Run) (stop bool) {
	for {
		select {
		case cmd := <-s.cmds:
			switch cmd.kind {
			case "close":
				// Re-enqueue for the main loop; stop advancing now.
				go func() { s.cmds <- cmd }()
				return true
			case "advance":
				cmd.reply <- sessReply{err: ErrBusy}
			default:
				s.exec(r, cmd)
				if s.isFailed() {
					return false // advance notices and aborts
				}
			}
		default:
			return false
		}
	}
}

// do sends a quick command through the mailbox and waits for the reply.
func (s *Session) do(fn func(*scenario.Run) (any, error)) (any, error) {
	reply := make(chan sessReply, 1)
	select {
	case s.cmds <- sessCmd{kind: "cmd", fn: fn, reply: reply}:
	case <-s.done:
		return nil, fmt.Errorf("session %s: %w", s.ID, ErrClosed)
	}
	select {
	case rep := <-reply:
		return rep.val, rep.err
	case <-s.done:
		return nil, fmt.Errorf("session %s: %w", s.ID, ErrClosed)
	}
}

// Advance drives the session to the absolute offset, blocking until
// virtual time lands there (or the timeline ends). Concurrent advances
// against the same session fail with ErrBusy; an advance interrupted
// by DELETE fails with ErrClosed, by graceful shutdown with
// ErrDraining — in every case the offset reached is already durable.
func (s *Session) Advance(to time.Duration) error {
	reply := make(chan sessReply, 1)
	select {
	case s.cmds <- sessCmd{kind: "advance", to: to, reply: reply}:
	case <-s.done:
		return fmt.Errorf("session %s: %w", s.ID, ErrClosed)
	}
	select {
	case rep := <-reply:
		return rep.err
	case <-s.done:
		return fmt.Errorf("session %s: %w", s.ID, ErrClosed)
	}
}

// Inject adds a fault to the session's remaining timeline — the
// branch-divergence primitive. Valid while paused or mid-advance (the
// injection lands at the next slice boundary); every resolved action
// must lie at or after the current offset. With a store attached the
// fault must have a wire form (cliconfig.EncodeFault): an injection
// that cannot be journaled cannot be made durable and is refused.
func (s *Session) Inject(f scenario.Fault) error {
	var wire *cliconfig.FaultRequest
	if s.jr != nil {
		fr, err := cliconfig.EncodeFault(f)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrInvalid, err)
		}
		wire = &fr
	}
	_, err := s.do(func(r *scenario.Run) (any, error) {
		if err := r.Inject(f); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
		}
		if err := s.journal(r, store.Record{Op: "inject", At: int64(r.Offset()), Fault: wire}); err != nil {
			return nil, err
		}
		s.injects.Inc()
		s.emit(Event{Type: "lifecycle", Offset: int64(r.Offset()), Kind: "injected",
			Detail: fmt.Sprintf("%T", f)})
		return nil, nil
	})
	return err
}

// Checkpoint captures the session at its current offset. When image is
// non-empty the checkpoint also registers as a named base image — and,
// with a store attached, persists as a replay recipe (root spec +
// injection history + offset) other daemal lifetimes can rebuild.
func (s *Session) Checkpoint(image string) (CheckpointInfo, error) {
	v, err := s.do(func(r *scenario.Run) (any, error) {
		chk := r.Checkpoint()
		info := CheckpointInfo{
			At:           chk.At,
			Fingerprint:  chk.Core.Fingerprint(),
			KernelDigest: chk.Core.State().Digest,
			TraceLen:     chk.TraceLen,
			TraceDigest:  chk.TraceDigest,
		}
		if image != "" {
			recipe, err := s.recipeFor(chk)
			if err != nil {
				return nil, err
			}
			if _, err := s.mgr.registerImage(image, chk, recipe, true); err != nil {
				return nil, err
			}
			info.Image = image
		}
		rec := store.Record{Op: "checkpoint", At: int64(chk.At), Image: image,
			KernelDigest: info.KernelDigest, TraceLen: chk.TraceLen, TraceDigest: chk.TraceDigest}
		if err := s.journalStamped(rec); err != nil {
			return nil, err
		}
		s.checkpoints.Inc()
		s.emit(Event{Type: "lifecycle", Offset: int64(chk.At), Kind: "checkpointed",
			Detail: info.Fingerprint})
		return info, nil
	})
	if err != nil {
		return CheckpointInfo{}, err
	}
	return v.(CheckpointInfo), nil
}

// recipeFor renders a capture of this session as a durable replay
// recipe: the root wire spec plus the capture's full injection history
// re-encoded into the wire vocabulary.
func (s *Session) recipeFor(chk *scenario.Checkpoint) (store.Recipe, error) {
	recipe := store.Recipe{Spec: s.rootReq, At: int64(chk.At)}
	for _, inj := range chk.Injections {
		fr, err := cliconfig.EncodeFault(inj.Fault)
		if err != nil {
			if s.jr != nil {
				return store.Recipe{}, fmt.Errorf("%w: %v", ErrInvalid, err)
			}
			// Without a store the recipe is informational only; skip the
			// unencodable entry rather than refusing the capture.
			continue
		}
		recipe.Injections = append(recipe.Injections, store.FaultRecord{At: int64(inj.At), Fault: fr})
	}
	return recipe, nil
}

// Fork captures the session at its current offset and starts an
// independent sibling session from the capture: shared byte-identical
// prefix (verified on fork), divergent future. The capture happens
// through the mailbox; the sibling's warm boot and replay run on the
// caller's goroutine so a fork never stalls the source session.
func (s *Session) Fork() (*Session, error) {
	v, err := s.do(func(r *scenario.Run) (any, error) {
		return r.Checkpoint(), nil
	})
	if err != nil {
		return nil, err
	}
	chk := v.(*scenario.Checkpoint)
	recipe, err := s.recipeFor(chk)
	if err != nil {
		return nil, err
	}
	r, err := chk.Fork()
	if err != nil {
		return nil, fmt.Errorf("session %s: fork: %w", s.ID, err)
	}
	s.forks.Inc()
	s.mgr.sessionForks.Inc()
	st := chk.Core.State()
	child, err := s.mgr.adopt(r, adoptConfig{
		baseImage: s.BaseImage,
		rootReq:   s.rootReq,
		create: &store.Record{Op: "create", At: int64(chk.At), Recipe: &recipe,
			KernelDigest: st.Digest, TraceLen: chk.TraceLen, TraceDigest: chk.TraceDigest},
	})
	if err != nil {
		r.Cloud.Close()
		return nil, fmt.Errorf("session %s: fork: %w", s.ID, err)
	}
	// The parent's fork record is informational (the child journals its
	// own history); it rides the caller's goroutine, so it may interleave
	// with the parent's next command — harmless, replay ignores it.
	_ = s.journal(nil, store.Record{Op: "fork", At: int64(chk.At), Child: child.ID,
		KernelDigest: st.Digest, TraceLen: chk.TraceLen, TraceDigest: chk.TraceDigest})
	s.emit(Event{Type: "lifecycle", Offset: int64(chk.At), Kind: "forked", Detail: child.ID})
	return child, nil
}

// Trace returns the session's recorded trace.
func (s *Session) Trace() ([]scenario.TraceEvent, error) {
	v, err := s.do(func(r *scenario.Run) (any, error) { return r.Trace(), nil })
	if err != nil {
		return nil, err
	}
	return v.([]scenario.TraceEvent), nil
}

// Status captures the session's externally visible state at a paused
// instant. Against a failed session it degrades to StatusLocal — the
// poisoned kernel is never touched again.
func (s *Session) Status() (Status, error) {
	v, err := s.do(func(r *scenario.Run) (any, error) {
		trace := r.Trace()
		st := s.StatusLocal()
		st.Offset = r.Offset()
		st.Duration = r.Spec.Duration
		st.Finished = r.Finished()
		st.TraceLen = len(trace)
		st.TraceDigest = scenario.DigestTrace(trace)
		st.Metrics = s.metrics()
		return st, nil
	})
	if err != nil {
		var fe *FailedError
		if errors.As(err, &fe) {
			return s.StatusLocal(), nil
		}
		return Status{}, err
	}
	return v.(Status), nil
}

// StatusLocal builds a status from the session's own guarded fields,
// without touching the kernel — what listings and health use for
// failed sessions (whose run must not be touched) and what Status
// fills in the common fields from. Trace figures are the last
// journaled ones; mid-advance they trail the kernel by the lag.
func (s *Session) StatusLocal() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Status{
		ID:          s.ID,
		Scenario:    s.Scenario,
		BaseImage:   s.BaseImage,
		State:       s.state,
		Failure:     s.failure,
		Offset:      s.offset,
		Duration:    s.duration,
		Finished:    s.offset >= s.duration,
		TraceLen:    s.lastTraceLen,
		TraceDigest: s.lastTraceDigest,
	}
}

// Offset returns the last paused offset without touching the mailbox
// (mid-advance it trails the kernel by at most one slice).
func (s *Session) Offset() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.offset
}

func (s *Session) setOffset(o time.Duration) {
	s.mu.Lock()
	s.offset = o
	s.mu.Unlock()
}

// State returns the session's lifecycle state.
func (s *Session) State() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

func (s *Session) setState(state string) {
	s.mu.Lock()
	s.state = state
	s.mu.Unlock()
}

func (s *Session) stateIs(state string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state == state
}

func (s *Session) failureInfo() (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failure, s.state == StateFailed
}

func (s *Session) isFailed() bool {
	_, failed := s.failureInfo()
	return failed
}

// markFailed isolates a poisoned kernel: record the reason (and stack,
// to the session's event feed), flip to StateFailed, count it. The
// journal keeps its last good record — recovery re-enacts the durable
// prefix, which by construction predates whatever blew up here.
func (s *Session) markFailed(reason string, stack []byte) {
	s.mu.Lock()
	if s.state == StateFailed {
		s.mu.Unlock()
		return
	}
	s.state = StateFailed
	s.failure = reason
	off := s.offset
	s.mu.Unlock()
	s.mgr.sessionsFailed.Inc()
	detail := reason
	if len(stack) > 0 {
		detail += "\n" + string(stack)
	}
	s.emit(Event{Type: "lifecycle", Offset: int64(off), Kind: "failed", Detail: detail})
}

// journal appends one write-ahead record, stamping it with the kernel
// digest and trace fingerprint at this paused instant when r is given
// (records built from a checkpoint pass nil and stamp themselves).
// A journal append that fails poisons the session: durability can no
// longer be promised, so the kernel stops taking state-changing
// commands rather than silently diverging from its journal.
func (s *Session) journal(r *scenario.Run, rec store.Record) error {
	if s.jr == nil {
		return nil
	}
	if r != nil {
		st := r.Cloud.KernelState()
		trace := r.Trace()
		rec.KernelDigest = st.Digest
		rec.TraceLen = len(trace)
		rec.TraceDigest = scenario.DigestTrace(trace)
	}
	return s.journalStamped(rec)
}

// journalStamped appends a record whose digest stamps are already
// filled in.
func (s *Session) journalStamped(rec store.Record) error {
	if s.jr == nil {
		return nil
	}
	appendStart := time.Now()
	err := s.jr.Append(rec)
	if s.journalHist != nil {
		s.journalHist.Observe(time.Since(appendStart).Seconds())
	}
	if err != nil {
		s.markFailed(fmt.Sprintf("journal append: %v", err), nil)
		return &FailedError{ID: s.ID, Reason: err.Error()}
	}
	s.mu.Lock()
	s.durableOffset = time.Duration(rec.At)
	if rec.TraceDigest != "" {
		s.lastTraceLen = rec.TraceLen
		s.lastTraceDigest = rec.TraceDigest
	}
	s.mu.Unlock()
	s.mgr.journalRecords.Inc()
	return nil
}

// journalAdvance records the offset the kernel actually reached.
func (s *Session) journalAdvance(r *scenario.Run) error {
	return s.journal(r, store.Record{Op: "advance", At: int64(r.Offset())})
}

// journalClose writes the terminal record and retires the journal file
// — a cleanly closed session has nothing to recover.
func (s *Session) journalClose() {
	if s.jr == nil {
		return
	}
	_ = s.jr.Append(store.Record{Op: "close", At: int64(s.Offset())})
	_ = s.jr.Close()
	if s.mgr.st != nil {
		_ = s.mgr.st.RemoveJournal(s.ID)
	}
}

// DurableOffset returns the offset of the last fsynced journal record;
// the gap to Offset is the session's journal lag.
func (s *Session) DurableOffset() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.durableOffset
}

// Close stops the kernel goroutine, releases the cloud and unlinks the
// session from the manager. Idempotent.
func (s *Session) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.done
		return
	}
	s.closed = true
	s.mu.Unlock()
	reply := make(chan sessReply, 1)
	select {
	case s.cmds <- sessCmd{kind: "close", reply: reply}:
	case <-s.done:
	}
	<-s.done
	s.mgr.remove(s.ID)
}

// Subscribe registers a telemetry subscriber with the given buffer.
// Events overflowing a slow subscriber's buffer are dropped (counted in
// the session metrics), never blocking the kernel.
func (s *Session) Subscribe(buf int) chan Event {
	ch := make(chan Event, buf)
	s.mu.Lock()
	s.subs[ch] = struct{}{}
	s.mu.Unlock()
	return ch
}

// Unsubscribe removes a subscriber.
func (s *Session) Unsubscribe(ch chan Event) {
	s.mu.Lock()
	delete(s.subs, ch)
	s.mu.Unlock()
}

// Subscribers returns the live subscriber count.
func (s *Session) Subscribers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}

// emit fans an event out to every subscriber, dropping on full buffers.
func (s *Session) emit(ev Event) {
	s.events.Inc()
	s.mu.Lock()
	defer s.mu.Unlock()
	for ch := range s.subs {
		select {
		case ch <- ev:
		default:
			s.eventsDropped.Inc()
		}
	}
}

// emitTelemetry samples the hierarchical meters and per-rack flow
// groups at a paused slice boundary: aggregate draw, per-rack draw
// (energy sub-meter groups) and per-rack bits carried (netsim link
// groups).
func (s *Session) emitTelemetry(r *scenario.Run) {
	c := r.Cloud
	c.Mu.Lock()
	total := c.Meter.TotalWatts()
	rackW := map[string]float64{}
	for _, g := range c.Meter.Groups() {
		rackW[strconv.Itoa(g)] = c.Meter.GroupWatts(g)
	}
	rackBits := map[string]float64{}
	for _, g := range c.Net.LinkGroupIDs() {
		rackBits[strconv.Itoa(g)] = c.Net.GroupBitsCarried(g)
	}
	c.Mu.Unlock()
	s.emit(Event{
		Type:       "telemetry",
		Offset:     int64(r.Offset()),
		PowerW:     total,
		RackPowerW: rackW,
		RackBits:   rackBits,
	})
}
