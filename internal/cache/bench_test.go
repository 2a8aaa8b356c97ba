package cache

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/metrics"
)

// BenchmarkAccess times one access on an L1D-shaped level (64 sets × 12
// ways, 48 MSHRs, the default configuration) registered in a metrics
// registry, so each access also samples the MSHR-occupancy histogram. Every
// path runs against a populated MSHR file, the state the prefetch-issue
// path meets in a full-detail run.
func BenchmarkAccess(b *testing.B) {
	const (
		sets, ways, mshrs = 64, 12, 48
		lines             = sets * ways
		start             = 200_000 // after every set-up fill has completed
	)
	line := func(i uint64) mem.PAddr { return mem.PAddr(i * mem.LineSize) }
	// The lower level's latency is set per phase: short while the sets
	// fill, then whatever the measured path needs.
	lower := &benchLower{}
	newL1D := func(b *testing.B) *Cache {
		b.Helper()
		c, err := New(Config{Name: "l1d", Sets: sets, Ways: ways, Latency: 5, MSHRs: mshrs}, lower)
		if err != nil {
			b.Fatal(err)
		}
		c.RegisterMetrics(metrics.NewRegistry(), "l1d")
		lower.latency = 10
		for i := uint64(0); i < lines; i++ { // every way of every set valid
			c.Access(load(line(i)), 0)
		}
		return c
	}
	// inflight prefetches lines lines..lines+n-1 at cycle 100,000 with a
	// lower level that never answers: each evicts line i (its set's oldest)
	// and stays in the MSHR file for the rest of the benchmark.
	inflight := func(c *Cache, n int) {
		lower.latency = 1 << 40
		for i := 0; i < n; i++ {
			c.Access(&Request{PA: line(uint64(lines + i)), Type: mem.Prefetch}, 100_000)
		}
	}
	run := func(b *testing.B, c *Cache, stat *uint64, next func(i uint64) (Request, uint64)) {
		b.Helper()
		var req Request
		before := *stat
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, cycle := next(uint64(i))
			req = r
			c.Access(&req, cycle)
		}
		b.StopTimer()
		if got := *stat - before; got != uint64(b.N) {
			b.Fatalf("path taken %d times in %d accesses", got, b.N)
		}
	}

	b.Run("hit", func(b *testing.B) {
		c := newL1D(b)
		inflight(c, 40)
		run(b, c, &c.Stats.DemandHits, func(i uint64) (Request, uint64) {
			return Request{PA: line(40 + i%(lines-40)), Type: mem.Load}, start + i
		})
	})
	b.Run("prefetch-hit", func(b *testing.B) {
		c := newL1D(b)
		inflight(c, 40)
		run(b, c, &c.Stats.PrefetchHits, func(i uint64) (Request, uint64) {
			return Request{PA: line(40 + i%(lines-40)), Type: mem.Prefetch}, start + i
		})
	})
	b.Run("miss-fill-evict", func(b *testing.B) {
		// One miss every 10 cycles against a 400-cycle lower level keeps
		// about 40 fills in flight: each access retires one and allocates
		// one, and every fill evicts a resident line.
		c := newL1D(b)
		lower.latency = 400
		run(b, c, &c.Stats.Evictions, func(i uint64) (Request, uint64) {
			return Request{PA: line(lines + i), Type: mem.Load}, start + 10*i
		})
	})
	b.Run("prefetch-drop-full", func(b *testing.B) {
		c := newL1D(b)
		inflight(c, mshrs)
		run(b, c, &c.Stats.MSHRDropPrefetch, func(i uint64) (Request, uint64) {
			return Request{PA: line(2*lines + i%4096), Type: mem.Prefetch}, start + i
		})
	})
}

// benchLower is a backing store whose latency the benchmark sets per phase.
type benchLower struct{ latency uint64 }

func (l *benchLower) Access(_ *Request, cycle uint64) uint64 { return cycle + l.latency }
