package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// HistogramValue is the exported state of a histogram.
type HistogramValue struct {
	// Bounds are the inclusive upper bucket edges; Counts has one extra
	// trailing overflow bucket.
	Bounds []uint64 `json:"bounds"`
	Counts []uint64 `json:"counts"`
	Sum    uint64   `json:"sum"`
	Count  uint64   `json:"count"`
}

// Mean returns the mean observed sample (0 when empty).
func (h *HistogramValue) Mean() float64 {
	if h == nil || h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Metric is one exported metric.
type Metric struct {
	Name  string          `json:"name"`
	Kind  Kind            `json:"kind"`
	Value uint64          `json:"value,omitempty"`
	Hist  *HistogramValue `json:"hist,omitempty"`
}

// Snapshot is a stable-ordered export of a registry: metrics sorted by
// name, integer-valued, safe to diff and to serialise byte-identically.
type Snapshot struct {
	Metrics []Metric `json:"metrics"`
}

// Value returns the named counter/gauge value.
func (s Snapshot) Value(name string) (uint64, bool) {
	for _, m := range s.Metrics {
		if m.Name == name && m.Kind != KindHistogram {
			return m.Value, true
		}
	}
	return 0, false
}

// Histogram returns the named histogram value.
func (s Snapshot) Histogram(name string) (*HistogramValue, bool) {
	for _, m := range s.Metrics {
		if m.Name == name && m.Hist != nil {
			return m.Hist, true
		}
	}
	return nil, false
}

// MarshalJSON is deterministic by construction (ordered slice of structs);
// defining it explicitly documents the guarantee the golden files rely on.
func (s Snapshot) MarshalIndentJSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	b, err := s.MarshalIndentJSON()
	if err != nil {
		return fmt.Errorf("metrics: encoding snapshot: %w", err)
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// ParseSnapshot decodes a snapshot previously written by WriteJSON.
func ParseSnapshot(data []byte) (Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return Snapshot{}, fmt.Errorf("metrics: decoding snapshot: %w", err)
	}
	return s, nil
}

// DiffEntry is one divergence between two snapshots, rendered readably for
// golden-test failures.
type DiffEntry struct {
	Name     string
	Old, New string
}

// String renders the entry on one line.
func (d DiffEntry) String() string {
	return fmt.Sprintf("%-40s %s -> %s", d.Name, d.Old, d.New)
}

// Diff compares two snapshots metric-by-metric and returns every
// difference: value drift, added and removed metrics, and per-bucket
// histogram drift. An empty result means the snapshots are identical.
func Diff(old, new Snapshot) []DiffEntry {
	index := func(s Snapshot) map[string]Metric {
		m := make(map[string]Metric, len(s.Metrics))
		for _, e := range s.Metrics {
			m[e.Name] = e
		}
		return m
	}
	om, nm := index(old), index(new)
	var out []DiffEntry
	for _, e := range old.Metrics {
		n, ok := nm[e.Name]
		if !ok {
			out = append(out, DiffEntry{e.Name, renderMetric(e), "(removed)"})
			continue
		}
		out = append(out, diffMetric(e, n)...)
	}
	for _, e := range new.Metrics {
		if _, ok := om[e.Name]; !ok {
			out = append(out, DiffEntry{e.Name, "(absent)", renderMetric(e)})
		}
	}
	return out
}

func renderMetric(m Metric) string {
	if m.Hist != nil {
		return fmt.Sprintf("hist{count=%d sum=%d}", m.Hist.Count, m.Hist.Sum)
	}
	return strconv.FormatUint(m.Value, 10)
}

func diffMetric(o, n Metric) []DiffEntry {
	if o.Hist == nil && n.Hist == nil {
		if o.Value != n.Value || o.Kind != n.Kind {
			return []DiffEntry{{o.Name, renderMetric(o), renderMetric(n)}}
		}
		return nil
	}
	if (o.Hist == nil) != (n.Hist == nil) {
		return []DiffEntry{{o.Name, renderMetric(o), renderMetric(n)}}
	}
	var out []DiffEntry
	if o.Hist.Count != n.Hist.Count || o.Hist.Sum != n.Hist.Sum {
		out = append(out, DiffEntry{o.Name, renderMetric(o), renderMetric(n)})
	}
	max := len(o.Hist.Counts)
	if len(n.Hist.Counts) > max {
		max = len(n.Hist.Counts)
	}
	for i := 0; i < max; i++ {
		var ov, nv uint64
		if i < len(o.Hist.Counts) {
			ov = o.Hist.Counts[i]
		}
		if i < len(n.Hist.Counts) {
			nv = n.Hist.Counts[i]
		}
		if ov != nv {
			out = append(out, DiffEntry{
				fmt.Sprintf("%s.bucket[%d]", o.Name, i),
				strconv.FormatUint(ov, 10), strconv.FormatUint(nv, 10),
			})
		}
	}
	return out
}
