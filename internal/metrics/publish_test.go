package metrics

import (
	"testing"

	"repro/internal/obs"
)

// TestPublishBridgesToObs pins the Publish collector's exported shapes:
// counters and gauges verbatim under the prefix, histograms as the
// _count/_mean/_p99 triple, series as _last — including instruments
// created after Publish.
func TestPublishBridgesToObs(t *testing.T) {
	reg := NewRegistry()
	o := obs.NewRegistry()
	reg.Publish(o, "node_", obs.L("node", "pi-0-1"))

	reg.Counter("spawns").Inc()
	reg.Gauge("cpu_util").Set(0.5)
	h := reg.Histogram("lat_ms")
	h.Observe(2)
	h.Observe(4)
	reg.Series("power_watts").Record(0, 3.5)

	got := map[string]float64{}
	for _, s := range o.Gather() {
		if len(s.Labels) != 1 || s.Labels[0].Value != "pi-0-1" {
			t.Fatalf("sample %s lost its label: %+v", s.Name, s.Labels)
		}
		got[s.Name] = s.Value
	}
	want := map[string]float64{
		"node_spawns":           1,
		"node_cpu_util":         0.5,
		"node_lat_ms_count":     2,
		"node_lat_ms_mean":      3,
		"node_lat_ms_p99":       4,
		"node_power_watts_last": 3.5,
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %v, want %v (all: %v)", name, got[name], v, got)
		}
	}
}
