// Bridging the legacy per-daemon metrics vocabulary into the unified
// observability registry (internal/obs). Registries created by node
// daemons, the REST API layer and the session manager publish
// themselves once; from then on every scrape of the obs registry reads
// their instruments through a read-time collector — no double
// bookkeeping, no copies on the increment path.
package metrics

import (
	"sort"

	"repro/internal/obs"
)

// Publish registers every instrument in r into the observability
// registry o as a read-time collector. Counters export under
// prefix+name as Prometheus counters, gauges as gauges; histograms
// export the same summary triple Snapshot has always produced
// (_count as a counter, _mean and _p99 as gauges); time series export
// their latest sample as <name>_last. Instruments created after
// Publish are picked up automatically on the next scrape.
func (r *Registry) Publish(o *obs.Registry, prefix string, labels ...obs.Label) {
	o.RegisterCollector(func(e *obs.Emitter) {
		r.mu.Lock()
		type kv struct {
			name string
			c    *Counter
			g    *Gauge
			h    *Histogram
			s    *TimeSeries
		}
		items := make([]kv, 0, len(r.counters)+len(r.gauges)+len(r.hists)+len(r.series))
		for name, c := range r.counters {
			items = append(items, kv{name: name, c: c})
		}
		for name, g := range r.gauges {
			items = append(items, kv{name: name, g: g})
		}
		for name, h := range r.hists {
			items = append(items, kv{name: name, h: h})
		}
		for name, s := range r.series {
			items = append(items, kv{name: name, s: s})
		}
		r.mu.Unlock()
		sort.Slice(items, func(i, j int) bool { return items[i].name < items[j].name })

		for _, it := range items {
			switch {
			case it.c != nil:
				e.Counter(prefix+it.name, it.c.Value(), labels...)
			case it.g != nil:
				e.Gauge(prefix+it.name, it.g.Value(), labels...)
			case it.h != nil:
				e.Counter(prefix+it.name+"_count", float64(it.h.Count()), labels...)
				e.Gauge(prefix+it.name+"_mean", it.h.Mean(), labels...)
				e.Gauge(prefix+it.name+"_p99", it.h.Quantile(0.99), labels...)
			case it.s != nil:
				if last, ok := it.s.Last(); ok {
					e.Gauge(prefix+it.name+"_last", last.Value, labels...)
				}
			}
		}
	})
}
