package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// A toy-size repetition of every workload, untraced and traced, in this
// process: no operation fails, observing the run leaves its output
// unchanged, and the traced run reports every per-layer metric the
// child measures.
func TestSmokeToyWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain := runChild(w, w.toy, defaultSeed, false, t.TempDir())
			traced := runChild(w, w.toy, defaultSeed, true, t.TempDir())
			for _, r := range []*childResult{plain, traced} {
				if len(r.Failures) > 0 || r.Attempted == 0 {
					t.Fatalf("traced=%v: attempted %d, failures %v", r.Traced, r.Attempted, r.Failures)
				}
				if r.Digest == "" || r.Events == 0 || r.SetupS <= 0 || r.RunS <= 0 {
					t.Fatalf("traced=%v: incomplete result %+v", r.Traced, r)
				}
			}
			if plain.Digest != traced.Digest || plain.Events != traced.Events || plain.KernelDigest != traced.KernelDigest {
				t.Errorf("tracing changed the output: %s/%d vs %s/%d", plain.Digest, plain.Events, traced.Digest, traced.Events)
			}
			for _, m := range perLayer {
				if _, ok := traced.Layers[m.Name]; !ok && !notMeasuredBy(w, m.Name) {
					t.Errorf("traced run did not report %s", m.Name)
				}
			}
		})
	}
}

// notMeasuredBy names the per-layer metrics a workload leaves at 0: the
// session layers on scenario workloads, and the tracing overhead, which
// the parent computes across repetitions.
func notMeasuredBy(w workload, name string) bool {
	if name == "trace.overhead_ratio" {
		return true
	}
	session := strings.HasPrefix(name, "session.") || strings.HasPrefix(name, "store.") ||
		name == "fleet.warm_restore_s" || name == "core.fork_reenact_s"
	return session && !w.session
}

// The parent's report ends with one JSON line carrying exactly the
// result keys, every metric of the mode, and failures counted against
// attempts.
func TestReportResultLine(t *testing.T) {
	w, _ := workloadByName("multiroot-churn")
	reps := []*repetition{
		{res: &childResult{Attempted: 1, SetupS: 0.1, RunS: 2, Digest: "d", Events: 5}, rssMB: 100},
		{res: &childResult{Attempted: 1, SetupS: 0.3, RunS: 4, Digest: "d", Events: 5}, rssMB: 120},
		{res: &childResult{Attempted: 1, SetupS: 0.2, RunS: 3, Digest: "x", Events: 5}, rssMB: 110},
	}
	var out bytes.Buffer
	h := harness{w: w, seed: 99, out: &out}
	h.check(reps)
	if err := h.report(reps); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(res) != 4 {
		t.Errorf("result keys = %d, want correct/attempted/failed/metrics", len(res))
	}
	var parsed result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.Correct || parsed.Attempted != 3 || parsed.Failed != 1 {
		t.Errorf("correct=%v attempted=%d failed=%d, want false 3 1 (one digest differs)",
			parsed.Correct, parsed.Attempted, parsed.Failed)
	}
	for _, m := range endToEnd {
		if v, ok := parsed.Metrics[m.Name]; !ok || v.Unit != m.Unit {
			t.Errorf("metric %s missing or with unit %q", m.Name, v.Unit)
		}
	}
	if got := parsed.Metrics["run_s"].Value; got != 3 {
		t.Errorf("run_s = %v, want the median 3", got)
	}
	if !strings.Contains(out.String(), "failed_ratio") {
		t.Error("report does not print failed_ratio")
	}
}
