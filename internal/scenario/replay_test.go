package scenario

// ReplayRecipe is the durable store's recovery primitive: a build
// plus a re-enacted injection history must land bit-identical to the
// run it describes. These tests pin that contract — including the
// same-offset rule that keeps a pending same-instant action pending —
// without the store in the loop.

import (
	"strings"
	"testing"
	"time"
)

// replaySpec shrinks megafleet-1000 to a few racks so a full replay
// runs in milliseconds. Built fresh per call: Inject appends to
// Spec.Faults, so runs must never share a spec value's backing array.
func replaySpec(t *testing.T) Spec {
	t.Helper()
	spec, err := Catalog("megafleet-1000")
	if err != nil {
		t.Fatal(err)
	}
	spec.Cloud.Racks = 4
	spec.Cloud.HostsPerRack = 14
	spec.Duration = 40 * time.Second
	spec.SampleEvery = 5 * time.Second
	return spec
}

func TestReplayRecipeReproducesInjectedHistory(t *testing.T) {
	// Original history: pause at 15s, inject a rack failure, run to 25s.
	orig, err := New(replaySpec(t))
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Cloud.Close()
	if err := orig.RunTo(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	fault := RackFail{Rack: 2, At: 20 * time.Second, Outage: 5 * time.Second}
	if err := orig.Inject(fault); err != nil {
		t.Fatal(err)
	}
	if err := orig.RunTo(25 * time.Second); err != nil {
		t.Fatal(err)
	}
	chk := orig.Checkpoint()

	rebuilt, err := ReplayRecipe(replaySpec(t), chk.Injections, chk.At)
	if err != nil {
		t.Fatal(err)
	}
	defer rebuilt.Cloud.Close()
	if rebuilt.Offset() != chk.At {
		t.Fatalf("replay paused at %v, want %v", rebuilt.Offset(), chk.At)
	}
	// The caller-side check the store's recovery performs: offset, trace
	// prefix and full cross-layer kernel fingerprint, byte for byte.
	if err := chk.Check(rebuilt); err != nil {
		t.Fatal(err)
	}

	// Both futures, run independently to the end, stay bit-identical.
	if err := orig.RunTo(orig.Spec.Duration); err != nil {
		t.Fatal(err)
	}
	if err := rebuilt.RunTo(rebuilt.Spec.Duration); err != nil {
		t.Fatal(err)
	}
	if got, want := DigestTrace(rebuilt.Trace()), DigestTrace(orig.Trace()); got != want {
		t.Fatalf("futures diverged: replayed %s, original %s", got, want)
	}
}

func TestReplayRecipePendingSameOffsetAction(t *testing.T) {
	// Inject at the pause instant itself: the fault is pending, not yet
	// executed, at the capture. The replay must reproduce exactly that —
	// a same-offset RunTo would fire the action early and diverge.
	orig, err := New(replaySpec(t))
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Cloud.Close()
	if err := orig.RunTo(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := orig.Inject(RackFail{Rack: 1, At: 20 * time.Second, Outage: 5 * time.Second}); err != nil {
		t.Fatal(err)
	}
	chk := orig.Checkpoint()

	rebuilt, err := ReplayRecipe(replaySpec(t), chk.Injections, chk.At)
	if err != nil {
		t.Fatal(err)
	}
	defer rebuilt.Cloud.Close()
	if got := rebuilt.Cloud.KernelState().Digest; got != chk.KernelDigest {
		t.Fatalf("pending action executed during replay: digest %s, want %s", got, chk.KernelDigest)
	}
	if err := orig.RunTo(orig.Spec.Duration); err != nil {
		t.Fatal(err)
	}
	if err := rebuilt.RunTo(rebuilt.Spec.Duration); err != nil {
		t.Fatal(err)
	}
	if got, want := DigestTrace(rebuilt.Trace()), DigestTrace(orig.Trace()); got != want {
		t.Fatalf("futures diverged after same-offset injection: replayed %s, original %s", got, want)
	}
}

func TestReplayRecipeRefusesOffsetPastDuration(t *testing.T) {
	spec := replaySpec(t)
	if _, err := ReplayRecipe(spec, nil, spec.Duration+time.Second); err == nil {
		t.Fatal("recipe offset past the run duration accepted")
	} else if !strings.Contains(err.Error(), "outside the run duration") {
		t.Fatalf("unexpected refusal: %v", err)
	}
}

// TestStampCheckCatchesEachMismatch: a stamp that differs from the run
// in any one field fails Check with an error naming that field.
func TestStampCheckCatchesEachMismatch(t *testing.T) {
	r, err := New(replaySpec(t))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Cloud.Close()
	if err := r.RunTo(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	good := r.Stamp()
	if err := good.Check(r); err != nil {
		t.Fatalf("run fails its own stamp: %v", err)
	}
	cases := []struct {
		name   string
		tamper func(*Stamp)
		want   string
	}{
		{"offset", func(s *Stamp) { s.At += time.Second }, "offset mismatch"},
		{"trace_len", func(s *Stamp) { s.TraceLen++ }, "trace mismatch"},
		{"trace_digest", func(s *Stamp) { s.TraceDigest = "x" }, "trace mismatch"},
		{"kernel_digest", func(s *Stamp) { s.KernelDigest = "x" }, "kernel digest mismatch"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := good
			c.tamper(&s)
			if err := s.Check(r); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Check = %v, want an error containing %q", err, c.want)
			}
		})
	}
	// The error text keeps the engine's counters.
	bad := good
	bad.KernelDigest = "x"
	if err := bad.Check(r); !strings.Contains(err.Error(), "events scheduled") {
		t.Fatalf("kernel mismatch error lacks the counters: %v", err)
	}
}
