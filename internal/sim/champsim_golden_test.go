package sim

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/trace"
)

// synthChampSimRecords builds a deterministic ChampSim-format record
// stream: three strided load streams with distinct page footprints, a store
// and a mostly-taken branch mixed in at fixed cadences, and compute padding
// — enough structure for the prefetcher, TLBs and branch predictor to have
// real work. The stream is a pure function of its length, so the trace
// file's content hash (and hence its campaign cache key) is stable across
// runs and machines.
func synthChampSimRecords(n int) []trace.ChampSimRecord {
	// Local splitmix64 so the fixture does not depend on unexported
	// generator internals.
	s := uint64(0x5EED_CAFE)
	next := func() uint64 {
		s += 0x9E3779B97F4A7C15
		z := s
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	bases := []uint64{0x10_0000_0000, 0x14_0000_0000, 0x18_0000_0000}
	cursors := append([]uint64(nil), bases...)
	ip := uint64(0x40_0000)
	recs := make([]trace.ChampSimRecord, 0, n)
	for i := 0; i < n; i++ {
		rec := trace.ChampSimRecord{IP: ip}
		switch i % 5 {
		case 0, 2: // strided load from one of the streams
			si := int(next() % uint64(len(cursors)))
			cursors[si] += 64
			if cursors[si] >= bases[si]+8192*4096 {
				cursors[si] = bases[si]
			}
			rec.SrcMem[0] = cursors[si]
		case 3: // store back into stream 0's line
			rec.DstMem[0] = cursors[0]
		case 4: // a branch, ~90% taken
			rec.IsBranch = 1
			if next()%10 != 0 {
				rec.BranchTaken = 1
			}
		}
		ip += 4
		if ip >= 0x40_0000+16*4096 { // bounded code footprint
			ip = 0x40_0000
		}
		recs = append(recs, rec)
	}
	return recs
}

// writeSynthChampSim materialises the synthetic trace into dir and returns
// its path. ~200k records cover warmup plus the sampled budget with room to
// spare.
func writeSynthChampSim(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "synth.champsimtrace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteChampSim(f, synthChampSimRecords(200_000)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// runChampSimGolden replays the synthetic ChampSim trace through a fresh
// system and returns the metrics snapshot fingerprint.
func runChampSimGolden(t *testing.T, cfg Config) []byte {
	t.Helper()
	path := writeSynthChampSim(t, t.TempDir())
	w, err := trace.LoadChampSim(path)
	if err != nil {
		t.Fatal(err)
	}
	reader, err := w.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	// The run closes the reader and fails on a mid-run decode error.
	_, sys, err := RunTraceSystem(context.Background(), cfg, w.Name, w.Suite, reader)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenChampSim replays a real-format (ChampSim) trace end to end
// through the full-detail pipeline and pins the complete metrics snapshot —
// the acceptance check that external-trace ingestion exercises the same
// machinery, deterministically, as the synthetic generators.
func TestGoldenChampSim(t *testing.T) {
	compareGolden(t, goldenPath("champsim.synth"), runChampSimGolden(t, goldenConfig()))
}

// TestGoldenChampSimSampled is the interval-sampled twin: the trace streams
// through functional warmup and measured intervals (exercising Reset-based
// replay and the BatchReader fast path) with its own fingerprint.
func TestGoldenChampSimSampled(t *testing.T) {
	compareGolden(t, sampledGoldenPath("champsim.synth"), runChampSimGolden(t, sampledGoldenConfig()))
}
