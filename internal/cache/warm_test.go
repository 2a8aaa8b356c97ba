package cache

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/stats"
)

// paInSet returns the n-th line address that maps to set s of a 4-set cache.
func paInSet(s, n uint64) mem.PAddr { return mem.PAddr((s + 4*n) << 6) }

// TestWarmResidencyCascade checks the functional-warm contract end to end
// through a two-level stack: residency and dirty state land exactly where a
// demand access would put them, dirty victims cascade as warm writebacks,
// and neither statistics nor hooks observe any of it.
func TestWarmResidencyCascade(t *testing.T) {
	lower := &fakeLower{latency: 100}
	l2, err := New(Config{Name: "l2", Sets: 16, Ways: 4, Latency: 10, MSHRs: 8}, lower)
	if err != nil {
		t.Fatal(err)
	}
	l1 := smallCache(t, l2) // 4 sets x 2 ways
	for _, c := range []*Cache{l1, l2} {
		c.OnEvict = func(EvictInfo) { t.Error("OnEvict fired during warm") }
		c.OnDemandMiss = func(*Request) { t.Error("OnDemandMiss fired during warm") }
	}

	a, b, d := paInSet(0, 0), paInSet(0, 1), paInSet(0, 2)
	l1.Warm(a, true) // dirty in L1
	l1.Warm(b, false)
	l1.Warm(b, false) // warm hit path
	if !l1.Contains(a) || !l1.Contains(b) {
		t.Fatal("warmed lines not resident in L1")
	}
	if !l2.Contains(a) || !l2.Contains(b) {
		t.Fatal("warm did not cascade residency into L2")
	}
	if len(lower.accesses) != 0 {
		t.Fatalf("warm reached the non-warmable backing store: %d accesses", len(lower.accesses))
	}

	// Set 0 is full; warming a third line evicts the dirty block a, whose
	// warm writeback must keep it resident (and dirty) in L2.
	l1.Warm(d, false)
	if l1.Contains(a) {
		t.Fatal("victim still resident in L1 after warm eviction")
	}
	if !l1.Contains(d) || !l2.Contains(d) || !l2.Contains(a) {
		t.Fatal("warm eviction lost residency somewhere in the hierarchy")
	}

	if *l1.Stats != (stats.CacheStats{}) || *l2.Stats != (stats.CacheStats{}) {
		t.Fatalf("warm accesses moved statistics: l1=%+v l2=%+v", *l1.Stats, *l2.Stats)
	}

	// A demand access to a warmed line is a plain hit at L1's own latency.
	for _, c := range []*Cache{l1, l2} {
		c.OnEvict, c.OnDemandMiss = nil, nil
	}
	if ready := l1.Access(load(d), 1000); ready != 1002 {
		t.Fatalf("post-warm demand ready = %d, want 1002 (L1 hit)", ready)
	}
	if len(lower.accesses) != 0 {
		t.Fatal("post-warm demand hit still reached the backing store")
	}
}
