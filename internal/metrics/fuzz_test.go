package metrics

import (
	"bytes"
	"os"
	"testing"
)

// FuzzSnapshotJSON fuzzes the snapshot decoder with arbitrary bytes and
// checks the canonical-form fixed point: once a snapshot parses, marshalling
// and re-parsing it must reproduce the same bytes. This is the property the
// golden-stats suite depends on — a snapshot file is stable under
// parse/serialise cycles.
func FuzzSnapshotJSON(f *testing.F) {
	// Seed corpus: hand-written snapshots covering counters, gauges,
	// histograms with overflow buckets, empty snapshots and edge values.
	f.Add([]byte(`{"metrics":[]}`))
	f.Add([]byte(`{"metrics":[{"name":"a","kind":"counter","value":1}]}`))
	f.Add([]byte(`{"metrics":[{"name":"g","kind":"gauge"}]}`))
	f.Add([]byte(`{"metrics":[{"name":"h","kind":"histogram","hist":{"bounds":[1,2],"counts":[0,1,2],"sum":7,"count":3}}]}`))
	f.Add([]byte(`{"metrics":[{"name":"m","kind":"counter","value":18446744073709551615}]}`))
	f.Add([]byte(`not json`))

	// One machine-generated seed, exactly as the registry would emit it.
	r := NewRegistry()
	r.Source("core", SourceFunc(func(emit Emit) { emit("cycles", KindCounter, 123) }))
	r.Histogram("dram.latency", []uint64{100, 500}).Observe(250)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())

	// Real sim.System snapshots — full-detail and sampled — as the
	// golden-stats suite pins them, so the fixed point covers every name
	// and kind the components' view sources emit.
	for _, path := range []string{
		"../sim/testdata/golden/spec.stream_s00.json",
		"../sim/testdata/golden/sampled/spec.stream_s00.json",
	} {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s1, err := ParseSnapshot(data)
		if err != nil {
			return // invalid input is fine; we only require no panic
		}
		b1, err := s1.MarshalIndentJSON()
		if err != nil {
			t.Fatalf("parsed snapshot failed to marshal: %v", err)
		}
		s2, err := ParseSnapshot(b1)
		if err != nil {
			t.Fatalf("canonical form failed to re-parse: %v\n%s", err, b1)
		}
		b2, err := s2.MarshalIndentJSON()
		if err != nil {
			t.Fatalf("re-parsed snapshot failed to marshal: %v", err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("canonical form is not a fixed point:\n%s\n--\n%s", b1, b2)
		}
	})
}
