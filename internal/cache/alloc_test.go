package cache

import (
	"testing"
	"unsafe"

	"repro/internal/mem"
)

// constLower is a constant-latency backing store that retains nothing, so
// allocation pins measure the cache alone.
type constLower struct{ latency uint64 }

func (l constLower) Access(_ *Request, cycle uint64) uint64 { return cycle + l.latency }

// TestWayFootprint pins the set metadata's host footprint: per way, an
// 8-byte tag, one state byte and a 16-byte timing record; per set, one
// 8-byte LRU-stack word.
func TestWayFootprint(t *testing.T) {
	c := smallCache(t, constLower{1})
	perWay := unsafe.Sizeof(c.tags[0]) + unsafe.Sizeof(c.state[0]) + unsafe.Sizeof(c.times[0])
	if perWay != 25 {
		t.Fatalf("%d bytes per way, want 25", perWay)
	}
	if perSet := unsafe.Sizeof(c.stacks[0]); perSet != 8 {
		t.Fatalf("%d bytes of recency state per set, want 8", perSet)
	}
	n := c.cfg.Sets * c.cfg.Ways
	if len(c.tags) != n || len(c.state) != n || len(c.times) != n || len(c.stacks) != c.cfg.Sets {
		t.Fatalf("rows tags %d state %d times %d stacks %d for %d sets x %d ways",
			len(c.tags), len(c.state), len(c.times), len(c.stacks), c.cfg.Sets, c.cfg.Ways)
	}
}

// TestAccessZeroAlloc pins the steady-state access paths — resident hit,
// full miss with eviction, in-flight merge and a demand waiting on a full
// MSHR file — at zero heap allocations, hooks installed.
func TestAccessZeroAlloc(t *testing.T) {
	newCache := func(t *testing.T, latency uint64) *Cache {
		t.Helper()
		c, err := New(Config{Name: "alloc", Sets: 4, Ways: 2, Latency: 2, MSHRs: 4}, constLower{latency})
		if err != nil {
			t.Fatal(err)
		}
		c.OnDemandHit = func(HitInfo) {}
		c.OnEvict = func(EvictInfo) {}
		c.OnDemandMiss = func(*Request) {}
		return c
	}
	// The request is reused across accesses, as the simulator's ports do:
	// the hooks let it escape, so a fresh one per access would allocate.
	var req Request
	access := func(c *Cache, pa mem.PAddr, cycle uint64) {
		req = Request{PA: pa, VA: mem.VAddr(pa), Type: mem.Load}
		c.Access(&req, cycle)
	}
	pin := func(t *testing.T, stat *uint64, step func(i uint64)) {
		t.Helper()
		var i uint64
		before := *stat
		if n := testing.AllocsPerRun(200, func() { step(i); i++ }); n != 0 {
			t.Fatalf("%v allocs per access, want 0", n)
		}
		if *stat-before != i {
			t.Fatalf("path taken %d times in %d accesses", *stat-before, i)
		}
	}

	t.Run("hit", func(t *testing.T) {
		c := newCache(t, 10)
		c.Access(load(0x1000), 0)
		pin(t, &c.Stats.DemandHits, func(i uint64) { access(c, 0x1000, 100+i) })
	})
	t.Run("full-miss", func(t *testing.T) {
		c := newCache(t, 10)
		for i := 0; i < 8; i++ { // every way valid: each miss evicts
			c.Access(load(mem.PAddr(i*mem.LineSize)), 0)
		}
		pin(t, &c.Stats.Evictions, func(i uint64) {
			access(c, mem.PAddr((i+8)*mem.LineSize), 100*(i+1))
		})
	})
	t.Run("inflight-merge", func(t *testing.T) {
		// Line 0x000 is evicted from set 0 while its fill is in flight, so
		// later demands find it only in the MSHR file.
		c := newCache(t, 1<<40)
		for _, pa := range []mem.PAddr{0x000, 0x100, 0x200} {
			c.Access(load(pa), 0)
		}
		if c.Contains(0x000) {
			t.Fatal("setup: line still resident")
		}
		pin(t, &c.Stats.DemandMisses, func(i uint64) { access(c, 0x000, 1+i) })
	})
	t.Run("mshr-full-wait", func(t *testing.T) {
		// Fills issued a cycle apart complete a cycle apart, so each
		// waiting demand frees exactly one MSHR and refills it.
		c := newCache(t, 1000)
		for i := 0; i < 4; i++ {
			c.Access(load(mem.PAddr(i*mem.LineSize)), uint64(i))
		}
		pin(t, &c.Stats.MSHRFullWaits, func(i uint64) {
			access(c, mem.PAddr((i+4)*mem.LineSize), 1)
		})
	})
}

// TestInjectedLeakOverflowsMSHRFile proves the file grows past its capacity
// only through an injected leak, and that the checker then reports it: with
// every release lost, a demand that waits for the earliest (leaked) entry
// frees nothing and its fill takes a fifth slot.
func TestInjectedLeakOverflowsMSHRFile(t *testing.T) {
	c := smallCache(t, constLower{1000}) // 4 MSHRs
	c.InjectMSHRLeak(1)
	for i := 0; i < 4; i++ {
		c.Access(load(mem.PAddr(0x1000+i*mem.LineSize)), 0)
	}
	c.Access(load(0x9000), 2000)
	if c.Stats.MSHRFullWaits != 1 {
		t.Fatalf("MSHR-full waits = %d, want 1", c.Stats.MSHRFullWaits)
	}
	checkAfter(t, c, 2000, "mshr-overflow:")
}
