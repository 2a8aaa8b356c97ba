package trace

import (
	"bytes"
	"io"
	"testing"
)

// batchSink keeps the compiler from dropping the benchmarked NextBatch call.
var batchSink int

// BenchmarkNextBatch times the two trace sources the simulator reads
// through BatchReader: the synthetic generator, and ChampSimReader decoding
// an in-memory trace synthesised here (loads, stores and branches
// interleaved, replayed with Reset at its end). One op is one instruction
// handed out.
func BenchmarkNextBatch(b *testing.B) {
	const batch = 1024
	drain := func(b *testing.B, r BatchReader, reset func()) {
		b.ReportAllocs()
		b.ResetTimer()
		n := 0
		for n < b.N {
			got := r.NextBatch(batch)
			if len(got) == 0 {
				reset()
				continue
			}
			n += len(got)
		}
		batchSink = n
	}

	b.Run("gen", func(b *testing.B) {
		w, ok := ByName("spec.stream_s00")
		if !ok {
			b.Fatal("workload spec.stream_s00 missing")
		}
		g, err := NewGen(w.Config)
		if err != nil {
			b.Fatal(err)
		}
		drain(b, g, g.Reset)
	})
	b.Run("champsim", func(b *testing.B) {
		recs := make([]ChampSimRecord, 4096)
		for i := range recs {
			u := uint64(i)
			r := &recs[i]
			r.IP = 0x400000 + u%64*4
			switch i % 8 {
			case 1, 4:
				r.SrcMem[0] = 0x10000000 + u*64
			case 5:
				r.DstMem[0] = 0x20000000 + u*8
			case 7:
				r.IsBranch, r.BranchTaken = 1, uint8(u/8%2)
			}
		}
		var buf bytes.Buffer
		if err := WriteChampSim(&buf, recs); err != nil {
			b.Fatal(err)
		}
		raw := buf.Bytes()
		r := NewChampSimReader(func() (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(raw)), nil
		})
		defer r.Close()
		drain(b, r, r.Reset)
		if err := r.Err(); err != nil {
			b.Fatal(err)
		}
	})
}
