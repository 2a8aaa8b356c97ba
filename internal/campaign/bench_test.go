package campaign

import (
	"testing"

	"repro/internal/sim"
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

// BenchmarkStoreGet measures one cache hit on a real single-core result:
// read the entry, check its head and checksum, decode the runs.
func BenchmarkStoreGet(b *testing.B) {
	s, k := storedRun(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(k); !ok {
			b.Fatal("store missed a key it stored")
		}
	}
}

// BenchmarkStorePut measures one durable write of a real single-core
// result; the file sync dominates it.
func BenchmarkStorePut(b *testing.B) {
	s, k := storedRun(b)
	runs, _ := s.Get(k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(k, runs); err != nil {
			b.Fatal(err)
		}
	}
}
