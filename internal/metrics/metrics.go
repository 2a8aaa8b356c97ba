// Package metrics is the simulator's unified observability substrate: a
// hierarchical registry of typed counters, gauges and histograms that every
// hardware component reports through, plus a fixed-capacity ring-buffer
// event tracer (tracer.go) and a stable-ordered, diff-able snapshot format
// (snapshot.go).
//
// Design constraints, in order:
//
//   - Allocation-free hot path. A counter is a plain field of the
//     component that counts it, incremented in place; a histogram is a
//     *Histogram obtained at registration time, whose Observe is field
//     arithmetic with no map lookup, no interface boxing, no allocation.
//   - Zero cost when absent. Observe is a no-op on a nil histogram, so a
//     component built without a registry pays one nil check, nothing else.
//   - Deterministic export. Snapshot() sorts by metric name and carries only
//     integer values, so two runs of the same seed produce byte-identical
//     JSON — the property the golden-stats regression suite locks down.
//
// The registry holds two things. Each component enters it as one view
// Source: a method that emits (name, kind, value) for the counters and
// gauges in its own working storage (stats.CacheStats and friends). The
// registry stores the source and nothing else, and builds names and samples
// values only inside Snapshot and Value, so an unread registry costs one
// slice entry per component. Distributional metrics (DRAM latency,
// page-walk depth, MSHR occupancy, prefetch degree) are native Histograms,
// owned by the registry and observed in place; a histogram whose last bound
// is at most 1023 maps a sample to its bucket with one table load, a wider
// one scans its bounds.
package metrics

import (
	"fmt"
	"sort"
	"strings"
)

// Kind classifies a registered metric.
type Kind string

// The metric kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Histogram is a fixed-bucket distribution over uint64 samples. Bounds are
// inclusive upper edges; samples above the last bound land in an implicit
// overflow bucket. Observe is allocation-free and nil-safe. When the last
// bound is at most bucketTableMax, a table built at construction maps each
// sample to its bucket in one load — the shape of per-access occupancy
// histograms such as "*.mshr_occupancy"; otherwise Observe scans the
// handful of bounds.
type Histogram struct {
	bounds   []uint64
	counts   []uint64 // len(bounds)+1; last is overflow
	bucketOf []uint16 // bucket of each sample 0..last bound, or nil
	sum      uint64
	count    uint64
}

// bucketTableMax is the largest last bound for which a histogram builds its
// sample→bucket table (2 KiB at most).
const bucketTableMax = 1023

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
	// One backing array holds the bounds, then the counts.
	buf := make([]uint64, 2*len(bounds)+1)
	n := copy(buf, bounds)
	h := &Histogram{bounds: buf[:n:n], counts: buf[n:]}
	if last := bounds[len(bounds)-1]; last <= bucketTableMax {
		h.bucketOf = make([]uint16, last+1)
		i := 0
		for v := range h.bucketOf {
			if uint64(v) > bounds[i] {
				i++
			}
			h.bucketOf[v] = uint16(i)
		}
	}
	return h, nil
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.sum += v
	h.count++
	switch {
	case v < uint64(len(h.bucketOf)):
		h.counts[h.bucketOf[v]]++
		return
	case h.bucketOf != nil: // above the last bound
		h.counts[len(h.bounds)]++
		return
	}
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

// Emit reports one field of a view source: its name relative to the
// source's prefix, its kind (KindCounter or KindGauge) and its value now.
type Emit func(name string, kind Kind, value uint64)

// Source is a component's view of its own working storage. EmitMetrics
// reports every field once through emit; the registry calls it only when
// it is read, so a source costs nothing between snapshots.
type Source interface {
	EmitMetrics(emit Emit)
}

// SourceFunc adapts a function to Source, for views that close over more
// than one component (the sim layer's cycle-aware occupancy gauges).
type SourceFunc func(emit Emit)

// EmitMetrics calls f.
func (f SourceFunc) EmitMetrics(emit Emit) { f(emit) }

// owned is one histogram the registry built and the hot path observes.
type owned struct {
	name string
	hist *Histogram
}

// view is one registered source and the prefix its names sit under.
type view struct {
	prefix string
	src    Source
}

// join builds a view field's full name; an empty prefix leaves it as is.
func join(prefix, name string) string {
	if prefix == "" {
		return name
	}
	return prefix + "." + name
}

// named reports whether join(prefix, name) == full, without building it.
func named(full, prefix, name string) bool {
	if prefix == "" {
		return full == name
	}
	return len(full) == len(prefix)+1+len(name) && full[len(prefix)] == '.' &&
		full[:len(prefix)] == prefix && full[len(prefix)+1:] == name
}

// Registry is a flat namespace of metrics with hierarchical dotted names
// ("l1d.demand_misses", "ptw.walk_depth"). It holds view sources and
// histograms only: histograms are built at registration, sources are only
// stored, and their names and values exist only inside Snapshot and Value.
// A duplicate name is a wiring bug, reported by a panic there. The registry
// is not synchronised: register everything first, then read it from any
// number of goroutines (each simulated system owns one registry and runs
// single-threaded; the daemon's shared registry reads atomic fields).
type Registry struct {
	owned []owned
	views []view
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Source registers a view source under prefix ("l1d", "prefetch.l1d.fdp";
// "" for sources that emit full names). Its fields are sampled at snapshot
// time: use it to export a component's existing statistics without moving
// their storage.
func (r *Registry) Source(prefix string, src Source) {
	r.views = append(r.views, view{prefix: prefix, src: src})
}

// Histogram creates and registers an owned histogram with the given bounds,
// which are statically known: bounds NewHistogram rejects are a wiring bug,
// reported by a panic.
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	h, err := NewHistogram(bounds)
	if err != nil {
		panic(err)
	}
	r.owned = append(r.owned, owned{name: name, hist: h})
	return h
}

// duplicate is the panic a name registered twice raises when read.
func duplicate(name string) string {
	return fmt.Sprintf("metrics: duplicate registration of %q", name)
}

// Value returns the current value of the named counter or gauge. It reads
// every registration the name could come from, so it panics on a
// duplicate just as Snapshot does.
func (r *Registry) Value(name string) (uint64, bool) {
	var v uint64
	found, isHist := false, false
	hit := func(x uint64, hist bool) {
		if found {
			panic(duplicate(name))
		}
		v, found, isHist = x, true, hist
	}
	for i := range r.owned {
		if r.owned[i].name == name {
			hit(0, true)
		}
	}
	for _, w := range r.views {
		if !strings.HasPrefix(name, w.prefix) {
			continue
		}
		w.src.EmitMetrics(func(n string, _ Kind, x uint64) {
			if named(name, w.prefix, n) {
				hit(x, false)
			}
		})
	}
	if !found || isHist {
		return 0, false
	}
	return v, true
}

// Reset zeroes every owned histogram. Views are over component state and
// reset with their components.
func (r *Registry) Reset() {
	for i := range r.owned {
		r.owned[i].hist.Reset()
	}
}

// Snapshot exports every metric, sorted by name, with values sampled at the
// moment of the call. It panics if two registrations share a name.
func (r *Registry) Snapshot() Snapshot {
	out := make([]Metric, 0, len(r.owned)+16*len(r.views))
	for i := range r.owned {
		o := &r.owned[i]
		out = append(out, Metric{Name: o.name, Kind: KindHistogram, Hist: o.hist.value()})
	}
	for _, w := range r.views {
		w.src.EmitMetrics(func(n string, k Kind, x uint64) {
			out = append(out, Metric{Name: join(w.prefix, n), Kind: k, Value: x})
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	for i := 1; i < len(out); i++ {
		if out[i].Name == out[i-1].Name {
			panic(duplicate(out[i].Name))
		}
	}
	return Snapshot{Metrics: out}
}
