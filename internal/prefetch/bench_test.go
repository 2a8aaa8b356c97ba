package prefetch_test

import (
	"testing"

	"repro/internal/prefetch"
	"repro/internal/sim"
)

// BenchmarkTrain times one Train call of every prefetcher in the
// simulator's name table, at every level that accepts it, built exactly as
// sim.New builds it: a new engine is measured without new benchmark code.
// The stream interleaves eight PCs, each walking its own region with its
// own stride and an occasional jump to a distant page.
func BenchmarkTrain(b *testing.B) {
	stream := make([]prefetch.Access, 1<<14)
	var pos [8]uint64
	x := uint64(0x9E3779B97F4A7C15)
	for i := range stream {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := x % 8
		pos[k] += (k%4 + 1) * 64
		if x%97 == 0 {
			pos[k] += 1 << 16
		}
		stream[i] = prefetch.Access{Addr: 0x10000000 + k<<28 + pos[k], PC: 0x400000 + k*0x40, Cycle: uint64(i) * 3, Hit: x%4 == 0}
	}
	for _, level := range []string{"l1d", "l2c", "l1i"} {
		for _, name := range sim.PrefetcherNames(level) {
			cfg := sim.DefaultConfig()
			cfg.L1DPrefetcher, cfg.L2CPrefetcher, cfg.L1IPrefetcher = "none", "none", "none"
			var pick func(*sim.System) prefetch.Prefetcher
			switch level {
			case "l1d":
				cfg.L1DPrefetcher, pick = name, func(s *sim.System) prefetch.Prefetcher { return s.L1DPf }
			case "l2c":
				cfg.L2CPrefetcher, pick = name, func(s *sim.System) prefetch.Prefetcher { return s.L2CPf }
			default:
				cfg.L1IPrefetcher, pick = name, func(s *sim.System) prefetch.Prefetcher { return s.L1IPf }
			}
			b.Run(level+"/"+name, func(b *testing.B) {
				s, err := sim.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				p := pick(s)
				for _, a := range stream { // reach steady state
					p.Train(a)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					a := stream[i%len(stream)]
					a.Cycle = uint64(len(stream)+i) * 3 // time keeps moving forward
					if !a.Hit {
						p.FillLatency(20 + a.Cycle%200)
					}
					p.Train(a)
				}
			})
		}
	}
}
