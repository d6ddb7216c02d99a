package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hardMargin is how far past the --seconds budget one harness
// invocation may run, children included, before the running child is
// killed: room for the last child, which starts inside the budget.
const hardMargin = 110 * time.Second

// harness runs one workload's repetitions, each in a fresh child
// process of this binary, so every repetition pays its own cold caches
// and its peak RSS is its own. Children run one at a time.
type harness struct {
	w       workload
	seed    int64
	seconds int
	traced  bool
	tmpRoot string
	out     io.Writer
}

// repetition is one finished child: its result and what the parent measured.
type repetition struct {
	res   *childResult
	rssMB float64
	wallS float64
	// cpuS is the child's user + system CPU time. Next to wallS it
	// shows whether a slow repetition waited (wall grows alone) or
	// computed longer (both grow: more work, or a slower CPU).
	cpuS   float64
	failed []string // checks the parent made against this child
}

func (h *harness) run() error {
	start := time.Now()
	fmt.Fprintf(h.out, "perfbench workload=%s seed=%d seconds=%d traced=%t\n", h.w.name, h.seed, h.seconds, h.traced)
	fmt.Fprintf(h.out, "env %s\n", describeEnv())
	budget := time.Duration(h.seconds) * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), budget+hardMargin)
	defer cancel()

	// Untraced only, or alternating untraced/traced so the tracing
	// overhead compares neighbouring runs. At least minReps children run;
	// more start while the slowest child so far still fits the budget.
	minReps := 3
	if h.traced {
		minReps = 2
	}
	var reps []*repetition
	longest := time.Duration(0)
	for i := 0; ; i++ {
		if i >= minReps && time.Since(start)+longest > budget {
			break
		}
		traced := h.traced && i%2 == 1
		r, err := h.child(ctx, traced)
		if err != nil {
			return err
		}
		reps = append(reps, r)
		if d := time.Duration(r.wallS * float64(time.Second)); d > longest {
			longest = d
		}
		fmt.Fprintf(h.out, "rep %d traced=%v setup_s=%.4f run_s=%.4f wall_s=%.4f cpu_s=%.4f peak_rss_mb=%.1f events=%d digest=%.16s failures=%d\n",
			i+1, traced, r.res.SetupS, r.res.RunS, r.wallS, r.cpuS, r.rssMB, r.res.Events, r.res.Digest, len(r.res.Failures))
	}
	h.check(reps)
	return h.report(reps)
}

// child runs one repetition in a fresh process and measures its peak
// RSS. A child that crashes or prints no result counts as one failed
// operation.
func (h *harness) child(ctx context.Context, traced bool) (*repetition, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(h.tmpRoot, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(h.tmpRoot, "perfbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	args := []string{"-child", "-workload", h.w.name, "-seed", strconv.FormatInt(h.seed, 10),
		"-traced=" + strconv.FormatBool(traced), "-tmp", tmp}
	var stdout bytes.Buffer
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	t := time.Now()
	runErr := cmd.Run()
	r := &repetition{wallS: time.Since(t).Seconds()}
	if ps := cmd.ProcessState; ps != nil {
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			r.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
			r.cpuS = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
		}
	}
	res := &childResult{Traced: traced}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), res); err != nil || runErr != nil {
		res.Attempted = max(res.Attempted, 1)
		res.fail("child process: exit %v, result %v", runErr, err)
	}
	r.res = res
	return r, nil
}

// check compares the children's outputs: every repetition of one seed
// must produce the same digest and event count, the traced run's
// included (observing a run never changes it), and pinned seeds must
// reproduce their pins.
func (h *harness) check(reps []*repetition) {
	var ref *childResult
	for _, r := range reps {
		if len(r.res.Failures) == 0 && r.res.Digest != "" {
			ref = r.res
			break
		}
	}
	pin, pinned := pins[h.w.name][h.seed]
	for _, r := range reps {
		c := r.res
		if c.Digest == "" {
			continue
		}
		if ref != nil && (c.Digest != ref.Digest || c.Events != ref.Events || c.KernelDigest != ref.KernelDigest) {
			r.failed = append(r.failed, fmt.Sprintf("traced=%v output %s/%d/%s differs from %s/%d/%s",
				c.Traced, c.Digest, c.Events, c.KernelDigest, ref.Digest, ref.Events, ref.KernelDigest))
		}
		if pinned && (c.Digest != pin.digest || c.Events != pin.events || c.KernelDigest != pin.kernelDigest) {
			r.failed = append(r.failed, fmt.Sprintf("output %s/%d/%s differs from the pin %s/%d/%s",
				c.Digest, c.Events, c.KernelDigest, pin.digest, pin.events, pin.kernelDigest))
		}
	}
	switch {
	case ref == nil:
		fmt.Fprintln(h.out, "output check: no repetition produced an output")
	case pinned:
		fmt.Fprintf(h.out, "output check: digest %s events %d pinned for seed %d\n", ref.Digest, ref.Events, h.seed)
	default:
		fmt.Fprintf(h.out, "output check: digest %s events %d (seed %d has no pin; repetitions compared)\n",
			ref.Digest, ref.Events, h.seed)
	}
}

// report prints every metric by name and unit with its statistics,
// then the JSON result line.
func (h *harness) report(reps []*repetition) error {
	var setup, run, total, rss, runTraced []float64
	var forks, advances, checkpoints []float64
	layers := map[string][]float64{}
	attempted, failed := 0, 0
	for _, r := range reps {
		c := r.res
		attempted += c.Attempted
		failed += min(c.Attempted, len(c.Failures)+len(r.failed))
		for _, f := range append(c.Failures, r.failed...) {
			fmt.Fprintf(h.out, "FAILED: %s\n", f)
		}
		if c.Traced {
			runTraced = append(runTraced, c.RunS)
			for k, v := range c.Layers {
				layers[k] = append(layers[k], v)
			}
			continue
		}
		forks, advances, checkpoints = append(forks, c.ForkS...), append(advances, c.AdvanceS...), append(checkpoints, c.CheckpointS...)
		setup, run = append(setup, c.SetupS), append(run, c.RunS)
		total, rss = append(total, c.SetupS+c.RunS), append(rss, r.rssMB)
	}

	e2e := map[string][]float64{"setup_s": setup, "run_s": run, "total_s": total, "peak_rss_mb": rss}
	for _, m := range endToEnd {
		fmt.Fprintf(h.out, "%-28s %-6s %s\n", m.Name, m.Unit, summarize(e2e[m.Name]))
	}
	if h.w.session {
		for _, m := range []struct {
			name string
			xs   []float64
		}{{"fork_s", forks}, {"advance_s", advances}, {"checkpoint_s", checkpoints}} {
			fmt.Fprintf(h.out, "%-28s %-6s %s\n", m.name, "s", summarize(m.xs))
		}
	}
	fmt.Fprintf(h.out, "%-28s %-6s %d/%d = %g\n", "failed_ratio", "ratio", failed, attempted,
		float64(failed)/float64(max(attempted, 1)))

	metrics := map[string]metricValue{}
	if !h.traced {
		for _, m := range endToEnd {
			metrics[m.Name] = metricValue{finite(median(e2e[m.Name])), m.Unit}
		}
	} else {
		layers["trace.overhead_ratio"] = []float64{median(runTraced) / median(run)}
		for _, m := range perLayer {
			v := 0.0
			if xs := layers[m.Name]; len(xs) > 0 {
				v = finite(median(xs))
			}
			metrics[m.Name] = metricValue{v, m.Unit}
			fmt.Fprintf(h.out, "%-28s %-6s %.6g\n", m.Name, m.Unit, v)
		}
	}
	line, err := json.Marshal(result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(h.out, "%s\n", line)
	return err
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// finite maps the NaN of an empty sample (every repetition failed) to
// 0 so the result line still encodes; such a run reports correct=false.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}
