// Package metrics is the simulator's unified observability substrate: a
// hierarchical registry of typed counters, gauges and histograms that every
// hardware component reports through, plus a fixed-capacity ring-buffer
// event tracer (tracer.go) and a stable-ordered, diff-able snapshot format
// (snapshot.go).
//
// Design constraints, in order:
//
//   - Allocation-free hot path. Components hold *Counter / *Histogram
//     pointers obtained at registration time; Add/Observe are plain field
//     arithmetic with no map lookups, no interface boxing, no allocation.
//   - Zero cost when absent. Every mutating method is a no-op on a nil
//     receiver, so an uninstrumented component (or a system built without a
//     registry) pays one nil check, nothing else.
//   - Deterministic export. Snapshot() sorts by metric name and carries only
//     integer values, so two runs of the same seed produce byte-identical
//     JSON — the property the golden-stats regression suite locks down.
//
// Existing statistics structs (stats.CacheStats and friends) remain the
// components' working storage; they enter the registry as function-backed
// counters (CounterFunc) sampled at snapshot time. New distributional
// metrics (DRAM latency, page-walk depth, MSHR occupancy, prefetch degree)
// are native Histograms.
package metrics

import (
	"fmt"
	"sort"
)

// Kind classifies a registered metric.
type Kind string

// The metric kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Counter is a monotonically increasing uint64. The zero value is ready to
// use; all methods are nil-safe no-ops so an unregistered component costs
// one branch.
type Counter struct {
	v uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Reset zeroes the counter (warmup/measurement boundary).
func (c *Counter) Reset() {
	if c != nil {
		c.v = 0
	}
}

// Histogram is a fixed-bucket distribution over uint64 samples. Bounds are
// inclusive upper edges; samples above the last bound land in an implicit
// overflow bucket. Observe is allocation-free (a linear scan over a handful
// of bounds) and nil-safe.
type Histogram struct {
	bounds []uint64
	counts []uint64 // len(bounds)+1; last is overflow
	sum    uint64
	count  uint64
}

// NewHistogram builds a histogram over the given strictly increasing
// inclusive upper bounds.
func NewHistogram(bounds []uint64) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("metrics: histogram needs at least one bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("metrics: histogram bounds must be strictly increasing (%d after %d)",
				bounds[i], bounds[i-1])
		}
	}
	return &Histogram{
		bounds: append([]uint64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}, nil
}

// ExpBounds returns n bounds growing geometrically from start by factor
// (both >= 1), a convenient latency-bucket shape.
func ExpBounds(start uint64, factor float64, n int) []uint64 {
	if start == 0 {
		start = 1
	}
	if factor < 1.0001 {
		factor = 2
	}
	out := make([]uint64, 0, n)
	v := float64(start)
	for i := 0; i < n; i++ {
		b := uint64(v)
		if len(out) > 0 && b <= out[len(out)-1] {
			b = out[len(out)-1] + 1
		}
		out = append(out, b)
		v *= factor
	}
	return out
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.sum += v
	h.count++
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Reset zeroes the sample state, keeping the bucket shape.
func (h *Histogram) Reset() {
	if h == nil {
		return
	}
	h.sum, h.count = 0, 0
	for i := range h.counts {
		h.counts[i] = 0
	}
}

// value exports the current state.
func (h *Histogram) value() *HistogramValue {
	return &HistogramValue{
		Bounds: append([]uint64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		Sum:    h.sum,
		Count:  h.count,
	}
}

// metric is one registry slot.
type metric struct {
	kind   Kind
	ctr    *Counter      // owned counter (KindCounter, sample == nil)
	sample func() uint64 // function-backed counter/gauge
	hist   *Histogram    // KindHistogram
}

// Registry is a flat namespace of metrics with hierarchical dotted names
// ("l1d.demand_misses", "ptw.walk_depth"). It is not synchronised: each
// simulated system owns one registry and runs single-threaded (the matrix
// worker pool parallelises across systems, never within one).
type Registry struct {
	metrics map[string]*metric
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// register installs m under name, panicking on duplicates — a duplicate
// registration is a wiring bug, not a runtime condition.
func (r *Registry) register(name string, m *metric) {
	if _, dup := r.metrics[name]; dup {
		panic(fmt.Sprintf("metrics: duplicate registration of %q", name))
	}
	r.metrics[name] = m
}

// Counter creates and registers an owned counter.
func (r *Registry) Counter(name string) *Counter {
	c := &Counter{}
	r.register(name, &metric{kind: KindCounter, ctr: c})
	return c
}

// CounterFunc registers a function-backed counter: sample is read at
// snapshot time. Use it to export an existing statistics field without
// moving its storage.
func (r *Registry) CounterFunc(name string, sample func() uint64) {
	r.register(name, &metric{kind: KindCounter, sample: sample})
}

// GaugeFunc registers a function-backed gauge (an instantaneous level, not
// a monotonic count): occupancy, threshold, inflight depth.
func (r *Registry) GaugeFunc(name string, sample func() uint64) {
	r.register(name, &metric{kind: KindGauge, sample: sample})
}

// Histogram creates and registers an owned histogram with the given bounds.
func (r *Registry) Histogram(name string, bounds []uint64) (*Histogram, error) {
	h, err := NewHistogram(bounds)
	if err != nil {
		return nil, err
	}
	r.register(name, &metric{kind: KindHistogram, hist: h})
	return h, nil
}

// MustHistogram is Histogram for statically known (correct) bounds.
func (r *Registry) MustHistogram(name string, bounds []uint64) *Histogram {
	h, err := r.Histogram(name, bounds)
	if err != nil {
		panic(err)
	}
	return h
}

// Value returns the current value of the named counter or gauge.
func (r *Registry) Value(name string) (uint64, bool) {
	m, ok := r.metrics[name]
	if !ok || m.kind == KindHistogram {
		return 0, false
	}
	if m.sample != nil {
		return m.sample(), true
	}
	return m.ctr.Value(), true
}

// Reset zeroes every owned counter and histogram. Function-backed metrics
// are views over component state and reset with their components.
func (r *Registry) Reset() {
	for _, m := range r.metrics {
		m.ctr.Reset()
		m.hist.Reset()
	}
}

// Snapshot exports every metric, sorted by name, with values sampled at the
// moment of the call.
func (r *Registry) Snapshot() Snapshot {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	out := Snapshot{Metrics: make([]Metric, 0, len(names))}
	for _, n := range names {
		m := r.metrics[n]
		e := Metric{Name: n, Kind: m.kind}
		switch {
		case m.hist != nil:
			e.Hist = m.hist.value()
		case m.sample != nil:
			e.Value = m.sample()
		default:
			e.Value = m.ctr.Value()
		}
		out.Metrics = append(out.Metrics, e)
	}
	return out
}
