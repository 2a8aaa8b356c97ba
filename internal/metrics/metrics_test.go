package metrics

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
)

// fixed registers a view that reports one counter under its full name, as
// a component's statistics field would.
func fixed(r *Registry, name string, v uint64) {
	r.Source("", SourceFunc(func(emit Emit) { emit(name, KindCounter, v) }))
}

func TestHistogramBoundsValidation(t *testing.T) {
	for _, bad := range [][]uint64{nil, {}, {5, 5}, {5, 3}, {1, 2, 2}} {
		if _, err := NewHistogram(bad); err == nil {
			t.Errorf("NewHistogram(%v): expected error", bad)
		}
	}
	if _, err := NewHistogram([]uint64{0, 1, 10}); err != nil {
		t.Fatalf("valid bounds rejected: %v", err)
	}
}

// TestHistogramInvariants is a property test against a reference bucketing:
// total count equals the sum of bucket counts, the sum equals the sample
// total, and every sample lands in the first bucket whose bound admits it.
func TestHistogramInvariants(t *testing.T) {
	bounds := []uint64{0, 3, 10, 100, 1000}
	h, err := NewHistogram(bounds)
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]uint64, len(bounds)+1)
	rng := rand.New(rand.NewSource(2))
	var sum uint64
	for i := 0; i < 50_000; i++ {
		v := uint64(rng.Intn(2000))
		h.Observe(v)
		sum += v
		slot := len(bounds)
		for j, b := range bounds {
			if v <= b {
				slot = j
				break
			}
		}
		ref[slot]++
	}
	hv := h.value()
	var bucketTotal uint64
	for _, c := range hv.Counts {
		bucketTotal += c
	}
	if bucketTotal != hv.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, hv.Count)
	}
	if hv.Sum != sum {
		t.Fatalf("sum %d != %d", hv.Sum, sum)
	}
	for i, want := range ref {
		if hv.Counts[i] != want {
			t.Fatalf("bucket %d: %d, want %d", i, hv.Counts[i], want)
		}
	}
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("after Reset: count=%d sum=%d", h.Count(), h.Sum())
	}
}

// TestHistogramObserveMatchesScan pins the bucket table against the scan
// over the bounds for every sample from 0 to one past the last bound: the
// MSHR-occupancy shape, geometric shapes on both sides of bucketTableMax,
// and single-bound edges.
func TestHistogramObserveMatchesScan(t *testing.T) {
	for _, bounds := range [][]uint64{
		{0, 1, 2, 4, 8, 16, 32, 64, 128},
		{1, 2, 4, 8, 16, 32, 64, 128, 256, 512},
		{10, 20, 40, 80, 160, 320, 640, 1280},
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 13, 17, 23, 30, 39, 51, 66, 86, 112, 146,
			190, 247, 321, 417, 542, 705, 917, 1192, 1550, 2015},
		{0},
		{bucketTableMax},
		{5, bucketTableMax + 1},
	} {
		h, err := NewHistogram(bounds)
		if err != nil {
			t.Fatal(err)
		}
		last := bounds[len(bounds)-1]
		if tabled := h.bucketOf != nil; tabled != (last <= bucketTableMax) {
			t.Fatalf("bounds %v: bucket table built %v", bounds, tabled)
		}
		for v := uint64(0); v <= last+1; v++ {
			want := len(bounds)
			for i, b := range bounds {
				if v <= b {
					want = i
					break
				}
			}
			before := h.counts[want]
			h.Observe(v)
			if h.counts[want] != before+1 {
				t.Fatalf("bounds %v: sample %d missed bucket %d (counts %v)", bounds, v, want, h.counts)
			}
		}
		if h.Count() != last+2 {
			t.Fatalf("bounds %v: count %d, want %d", bounds, h.Count(), last+2)
		}
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(5)
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram not zero")
	}
}

// TestRegistryDuplicatePanics registers each kind of name collision —
// histogram against histogram, a histogram against a view, and two views
// that join to the same name — and requires every read (Snapshot, and Value of the
// shared name) to panic, while registration itself stays free.
func TestRegistryDuplicatePanics(t *testing.T) {
	gauge := func(name string) SourceFunc {
		return func(emit Emit) { emit(name, KindGauge, 0) }
	}
	for _, tc := range []struct {
		what  string
		build func(r *Registry)
	}{
		{"histogram twice", func(r *Registry) { r.Histogram("a.x", []uint64{1}); r.Histogram("a.x", []uint64{1}) }},
		{"histogram and view", func(r *Registry) { r.Histogram("a.x", []uint64{1}); r.Source("a", gauge("x")) }},
		{"two views", func(r *Registry) { r.Source("a", gauge("x")); r.Source("", gauge("a.x")) }},
		{"one view twice", func(r *Registry) {
			r.Source("a", SourceFunc(func(emit Emit) {
				emit("x", KindCounter, 1)
				emit("x", KindCounter, 2)
			}))
		}},
	} {
		for _, read := range []struct {
			name string
			f    func(r *Registry)
		}{
			{"Snapshot", func(r *Registry) { r.Snapshot() }},
			{"Value", func(r *Registry) { r.Value("a.x") }},
		} {
			r := NewRegistry()
			tc.build(r)
			fixed(r, "other", 0)
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: %s did not panic", tc.what, read.name)
					}
				}()
				read.f(r)
			}()
			if v, ok := r.Value("other"); !ok || v != 0 {
				t.Errorf("%s: an unrelated name must still read: %d, %v", tc.what, v, ok)
			}
		}
	}
}

func TestRegistryValueAndReset(t *testing.T) {
	r := NewRegistry()
	backing := uint64(41)
	r.Source("", SourceFunc(func(emit Emit) {
		emit("view", KindCounter, backing)
		emit("gauge", KindGauge, 7)
	}))
	h := r.Histogram("hist", []uint64{10})
	backing++
	h.Observe(3)

	for _, tc := range []struct {
		name string
		want uint64
	}{{"view", 42}, {"gauge", 7}} {
		got, ok := r.Value(tc.name)
		if !ok || got != tc.want {
			t.Fatalf("Value(%q) = %d, %v; want %d, true", tc.name, got, ok, tc.want)
		}
	}
	if _, ok := r.Value("hist"); ok {
		t.Fatal("Value on a histogram must report false")
	}
	if _, ok := r.Value("missing"); ok {
		t.Fatal("Value on a missing name must report false")
	}

	r.Reset()
	if h.Count() != 0 {
		t.Fatal("Reset did not zero the histogram")
	}
	if v, _ := r.Value("view"); v != 42 {
		t.Fatalf("Reset must not touch view sources: %d", v)
	}
}

// TestSnapshotStableOrder locks the determinism guarantee: registries built
// in different insertion orders with the same contents produce byte-identical
// snapshot JSON.
func TestSnapshotStableOrder(t *testing.T) {
	build := func(names []string) Snapshot {
		r := NewRegistry()
		for _, n := range names {
			if strings.HasPrefix(n, "h.") {
				r.Histogram(n, []uint64{1, 2}).Observe(1)
			} else {
				fixed(r, n, 3)
			}
		}
		return r.Snapshot()
	}
	a := build([]string{"z", "a", "h.x", "m"})
	b := build([]string{"h.x", "m", "a", "z"})
	aj, err := a.MarshalIndentJSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.MarshalIndentJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Fatalf("snapshots differ by insertion order:\n%s\n--\n%s", aj, bj)
	}
	for i := 1; i < len(a.Metrics); i++ {
		if a.Metrics[i-1].Name >= a.Metrics[i].Name {
			t.Fatalf("snapshot not sorted: %q before %q", a.Metrics[i-1].Name, a.Metrics[i].Name)
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	fixed(r, "c", 9)
	r.Source("", SourceFunc(func(emit Emit) { emit("g", KindGauge, 4) }))
	h := r.Histogram("h", []uint64{1, 10, 100})
	h.Observe(0)
	h.Observe(50)
	h.Observe(5000)
	snap := r.Snapshot()

	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ParseSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	bj, err := back.MarshalIndentJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(bj)+"\n" != buf.String() {
		t.Fatalf("round trip not identical:\n%s\n--\n%s", buf.String(), bj)
	}
	if v, ok := back.Value("c"); !ok || v != 9 {
		t.Fatalf("Value(c) = %d, %v", v, ok)
	}
	hv, ok := back.Histogram("h")
	if !ok || hv.Count != 3 || hv.Sum != 5050 {
		t.Fatalf("Histogram(h) = %+v, %v", hv, ok)
	}
	if got := hv.Mean(); got < 1683 || got > 1684 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestDiff(t *testing.T) {
	mk := func(f func(r *Registry)) Snapshot {
		r := NewRegistry()
		f(r)
		return r.Snapshot()
	}
	old := mk(func(r *Registry) {
		fixed(r, "same", 1)
		fixed(r, "drift", 10)
		fixed(r, "gone", 3)
		r.Histogram("h", []uint64{5}).Observe(1)
	})
	new_ := mk(func(r *Registry) {
		fixed(r, "same", 1)
		fixed(r, "drift", 12)
		fixed(r, "added", 8)
		h := r.Histogram("h", []uint64{5})
		h.Observe(1)
		h.Observe(100)
	})

	if d := Diff(old, old); len(d) != 0 {
		t.Fatalf("self diff not empty: %v", d)
	}
	d := Diff(old, new_)
	byName := map[string]bool{}
	for _, e := range d {
		byName[e.Name] = true
		if e.Name == "same" {
			t.Fatalf("unchanged metric in diff: %v", e)
		}
	}
	for _, want := range []string{"drift", "gone", "added", "h", "h.bucket[1]"} {
		if !byName[want] {
			t.Errorf("diff missing entry for %q: %v", want, d)
		}
	}
}

func TestTracerRing(t *testing.T) {
	if _, err := NewTracer(0); err == nil {
		t.Fatal("capacity 0 accepted")
	}
	tr, err := NewTracer(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 10; i++ {
		tr.Emit(i, EvTLBMiss, i, 0)
	}
	if tr.Total() != 10 {
		t.Fatalf("Total = %d", tr.Total())
	}
	if tr.KindCount(EvTLBMiss) != 10 || tr.KindCount(EvWalkEnd) != 0 {
		t.Fatalf("KindCount wrong: %d / %d", tr.KindCount(EvTLBMiss), tr.KindCount(EvWalkEnd))
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events", len(evs))
	}
	for i, e := range evs {
		if want := uint64(6 + i); e.Cycle != want {
			t.Fatalf("event %d: cycle %d, want %d (oldest-first)", i, e.Cycle, want)
		}
	}
	tr.Reset()
	if tr.Total() != 0 || len(tr.Events()) != 0 {
		t.Fatal("Reset left state")
	}
}

func TestTracerNilDisabled(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer enabled")
	}
	tr.Emit(1, EvWalkBegin, 2, 3)
	tr.Reset()
	if tr.Total() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer recorded")
	}
	if err := tr.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

// TestTracerEmitNoAllocs locks the zero-allocation guarantee for both the
// disabled (nil) tracer and the steady-state enabled ring.
func TestTracerEmitNoAllocs(t *testing.T) {
	var disabled *Tracer
	if n := testing.AllocsPerRun(1000, func() {
		disabled.Emit(1, EvTLBMiss, 2, 3)
	}); n != 0 {
		t.Fatalf("disabled Emit allocates %v/op", n)
	}
	enabled, err := NewTracer(64)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		enabled.Emit(1, EvWalkEnd, 2, 3)
	}); n != 0 {
		t.Fatalf("enabled Emit allocates %v/op", n)
	}
}

func TestTracerRegisterMetrics(t *testing.T) {
	tr, _ := NewTracer(8)
	r := NewRegistry()
	r.Source("trace", tr)
	tr.Emit(1, EvPageCrossIssue, 0, 0)
	tr.Emit(2, EvPageCrossIssue, 0, 0)
	tr.Emit(3, EvPageCrossDrop, 0, 0)
	if v, ok := r.Value("trace.events.pgc-issue"); !ok || v != 2 {
		t.Fatalf("pgc-issue = %d, %v", v, ok)
	}
	if v, ok := r.Value("trace.events.pgc-drop"); !ok || v != 1 {
		t.Fatalf("pgc-drop = %d, %v", v, ok)
	}
}

func TestTracerWriteJSONL(t *testing.T) {
	tr, _ := NewTracer(8)
	tr.Emit(5, EvWalkBegin, 10, 1)
	tr.Emit(9, EvWalkEnd, 10, 42)
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines", len(lines))
	}
	var rec struct {
		Cycle uint64 `json:"cycle"`
		Kind  string `json:"kind"`
		A, B  uint64
	}
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatalf("line not JSON: %v", err)
	}
	if rec.Cycle != 9 || rec.Kind != "walk-end" || rec.A != 10 || rec.B != 42 {
		t.Fatalf("decoded %+v", rec)
	}
}
