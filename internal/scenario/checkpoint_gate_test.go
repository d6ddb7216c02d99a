package scenario

// Gates for the PR 5 scheduler + checkpoint work:
//
//   - TestCalendarMatchesClassicHeap is the scheduler differential: every
//     canned scenario (including the cancellation-heavy migration-storm,
//     whose completion re-arms exercise the tombstone path hard) runs
//     once on the default two-level calendar scheduler and once on the
//     seed binary heap, and the traces must be bitwise identical. The
//     (time, sequence) total order is the contract; the scheduler is an
//     implementation detail that must be invisible.
//
//   - TestCheckpointResumeByteIdentical pins both halves of the restore
//     contract on every small-catalog scenario, at multiple capture
//     instants: (1) a run that is paused, checkpointed and continued is
//     byte-identical to one that never was (capture is non-perturbing);
//     (2) a run forked from the checkpoint — rebuilt through core.New,
//     replayed prefix, checked Stamp — ends with the byte-identical
//     trace of run-from-start. Fork itself fails loudly if the replayed
//     run diverges from the capture, so this test also executes
//     Stamp.Check across the trace and the clock, scheduler, netsim,
//     SDN and energy state on every fork.
//
//   - TestBranchInjectSharesPrefix proves the branching primitive:
//     divergent faults injected on two forks of one checkpoint produce
//     traces that agree event-for-event up to the capture and then
//     genuinely diverge.

import (
	"testing"
	"time"

	"repro/internal/core"
)

func TestCalendarMatchesClassicHeap(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			spec, err := Catalog(name)
			if err != nil {
				t.Fatal(err)
			}
			spec = shrinkForGate(spec)
			base := kernelBaseline(t, name) // default: calendar scheduler

			classic := executeKernelVariant(t, spec, func(cfg *core.Config) { cfg.Kernel.ClassicHeap = true })
			requireIdentical(t, "calendar vs classic heap", base, classic)
		})
	}
}

// smallCatalog lists the scenarios fast enough to run several times per
// gate — the same set whose digests scenarioDigests pins.
func smallCatalog(t *testing.T) []Spec {
	t.Helper()
	out := make([]Spec, 0, len(scenarioDigests))
	for name := range scenarioDigests {
		spec, err := Catalog(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, spec)
	}
	return out
}

func TestCheckpointResumeByteIdentical(t *testing.T) {
	for _, spec := range smallCatalog(t) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			straight, err := Execute(spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, frac := range []float64{0.25, 0.625} {
				at := time.Duration(frac * float64(spec.Duration)).Round(time.Second)
				// Pause, checkpoint, continue: must equal the unobserved run.
				run, chk, err := Branch(spec, at)
				if err != nil {
					t.Fatalf("branch at %v: %v", at, err)
				}
				continued, err := run.Execute()
				run.Cloud.Close()
				if err != nil {
					t.Fatal(err)
				}
				requireIdentical(t, "straight vs checkpointed-and-continued", straight, continued)

				// Fork from the checkpoint: build, replay, check, finish.
				fork, err := chk.Fork()
				if err != nil {
					t.Fatalf("fork at %v: %v", at, err)
				}
				resumed, err := fork.Execute()
				fork.Cloud.Close()
				if err != nil {
					t.Fatal(err)
				}
				requireIdentical(t, "straight vs resumed-from-checkpoint", straight, resumed)
			}
		})
	}
}

func TestBranchInjectSharesPrefix(t *testing.T) {
	spec, err := Catalog("rack-blackout")
	if err != nil {
		t.Fatal(err)
	}
	// Strip the canned fault: the arms inject their own futures.
	spec.Faults = nil
	base, chk, err := Branch(spec, 90*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Cloud.Close()

	armA, err := chk.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if err := armA.Inject(RackFail{Rack: 1, At: 2 * time.Minute, Outage: time.Minute}); err != nil {
		t.Fatal(err)
	}
	repA, err := armA.Execute()
	armA.Cloud.Close()
	if err != nil {
		t.Fatal(err)
	}

	armB, err := chk.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if err := armB.Inject(LinkFail{At: 2 * time.Minute, Outage: time.Minute}); err != nil {
		t.Fatal(err)
	}
	repB, err := armB.Execute()
	armB.Cloud.Close()
	if err != nil {
		t.Fatal(err)
	}

	if len(repA.Trace) < chk.TraceLen || len(repB.Trace) < chk.TraceLen {
		t.Fatalf("arms lost the shared prefix: %d and %d events, prefix %d", len(repA.Trace), len(repB.Trace), chk.TraceLen)
	}
	for i := 0; i < chk.TraceLen; i++ {
		if repA.Trace[i].String() != repB.Trace[i].String() {
			t.Fatalf("shared prefix diverged at event %d:\n  A: %s\n  B: %s", i, repA.Trace[i], repB.Trace[i])
		}
	}
	if DigestTrace(repA.Trace) == DigestTrace(repB.Trace) {
		t.Fatal("divergent fault injections produced identical traces")
	}
	// Fork isolation: the arms' injections must not have leaked into the
	// checkpoint's recorded fault list (shared backing storage would let
	// one fork's Inject overwrite another's).
	if len(chk.Spec.Faults) != 0 {
		t.Fatalf("checkpoint fault list grew to %d after fork injections", len(chk.Spec.Faults))
	}
	// Injecting into the past must be rejected.
	late, err := chk.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer late.Cloud.Close()
	if err := late.Inject(RackFail{Rack: 1, At: 10 * time.Second, Outage: time.Minute}); err == nil {
		t.Fatal("Inject accepted an action before the fork offset")
	}
}

// TestForksHaveDistinctImageRegistries: every fork builds its own
// cloud from the spec, image registry included, so a publish on one
// fork is invisible to its sibling and to the run it was forked from.
func TestForksHaveDistinctImageRegistries(t *testing.T) {
	spec, err := Catalog("rack-blackout")
	if err != nil {
		t.Fatal(err)
	}
	base, chk, err := Branch(spec, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Cloud.Close()
	a, err := chk.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer a.Cloud.Close()
	b, err := chk.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer b.Cloud.Close()

	regA, regB := a.Cloud.Master.Images(), b.Cloud.Master.Images()
	if regA == regB || regA == base.Cloud.Master.Images() {
		t.Fatal("forks share an image registry")
	}
	before := len(regB.List())
	if _, err := regA.Spawn(regA.List()[0], "fork-a-only", "v1"); err != nil {
		t.Fatal(err)
	}
	if got := len(regB.List()); got != before {
		t.Fatalf("publish on fork a changed fork b's registry: %d images, want %d", got, before)
	}
	if got := len(base.Cloud.Master.Images().List()); got != before {
		t.Fatalf("publish on fork a changed the base run's registry: %d images, want %d", got, before)
	}
}
