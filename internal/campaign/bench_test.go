package campaign

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// keySink keeps the compiler from dropping the benchmarked KeyOf call.
var keySink Key

// BenchmarkKeyOf measures the content key of one cell, the hash every
// campaign cell pays before its cache lookup: a single-core cell on the
// default configuration, one under an ablation filter (a FilterConfig with
// feature lists, a *int threshold and floats) over a phased workload, and
// a 2-core mix with a ChampSim trace. The ablation's "VA>>12" feature is
// escaped through encoding/json, which costs that case three allocations.
func BenchmarkKeyOf(b *testing.B) {
	cfg, w := sim.DefaultConfig(), workload(b, "spec.stream_s00")
	b.Run("default", func(b *testing.B) {
		benchKey(b, func() (Key, error) { return KeyOf(cfg, w) })
	})
	b.Run("ablation", func(b *testing.B) {
		ablation, phased := cfg, workload(b, "spec.phased_s00")
		fc := core.PPFConfig()
		ablation.FilterConfig = &fc
		benchKey(b, func() (Key, error) { return KeyOf(ablation, phased) })
	})
	b.Run("mix", func(b *testing.B) {
		ext, err := trace.LoadChampSim(champSimFixture)
		if err != nil {
			b.Fatal(err)
		}
		mc, mix := sim.DefaultMultiConfig(), []trace.Workload{w, ext}
		mc.Cores = len(mix)
		benchKey(b, func() (Key, error) { return MixKeyOf(mc, mix) })
	})
}

func benchKey(b *testing.B, key func() (Key, error)) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k, err := key()
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
