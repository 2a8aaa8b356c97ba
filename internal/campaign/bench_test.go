package campaign

import (
	"context"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

// keySink keeps the compiler from dropping the benchmarked KeyOf call.
var keySink Key

// BenchmarkKeyOf measures the content key of one single-core cell on the
// default configuration: the hash every campaign cell pays before its
// cache lookup.
func BenchmarkKeyOf(b *testing.B) {
	cfg, w := sim.DefaultConfig(), workload(b, "spec.stream_s00")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k, err := KeyOf(cfg, w)
		if err != nil {
			b.Fatal(err)
		}
		keySink = k
	}
}

// BenchmarkStoreGetPut measures one store round trip: Put of a real
// single-core result, then Get of the same key.
func BenchmarkStoreGetPut(b *testing.B) {
	cfg, w := tinyConfig(b), workload(b, "spec.stream_s00")
	run, err := sim.RunWorkload(context.Background(), cfg, w)
	if err != nil {
		b.Fatal(err)
	}
	k, err := KeyOf(cfg, w)
	if err != nil {
		b.Fatal(err)
	}
	s, err := OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	runs := []*stats.Run{run}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(k, runs); err != nil {
			b.Fatal(err)
		}
		if _, ok := s.Get(k); !ok {
			b.Fatal("store missed a key it just stored")
		}
	}
}
