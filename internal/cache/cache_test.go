package cache

import (
	"strings"
	"testing"

	"repro/internal/mem"
)

// fakeLower is a constant-latency backing store that records accesses.
type fakeLower struct {
	latency  uint64
	accesses []Request
}

func (f *fakeLower) Access(req *Request, cycle uint64) uint64 {
	f.accesses = append(f.accesses, *req)
	return cycle + f.latency
}

func smallCache(t *testing.T, lower Level) *Cache {
	t.Helper()
	c, err := New(Config{Name: "test", Sets: 4, Ways: 2, Latency: 2, MSHRs: 4}, lower)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func load(pa mem.PAddr) *Request {
	return &Request{PA: pa, VA: mem.VAddr(pa), Type: mem.Load}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Name: "a", Sets: 3, Ways: 1, MSHRs: 1},
		{Name: "b", Sets: 4, Ways: 0, MSHRs: 1},
		{Name: "c", Sets: 4, Ways: 1, MSHRs: 0},
	}
	for _, cfg := range bad {
		if _, err := New(cfg, &fakeLower{}); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	// A set's LRU order is one word of sixteen 4-bit way ids.
	if _, err := New(Config{Name: "e", Sets: 4, Ways: 16, MSHRs: 1}, &fakeLower{}); err != nil {
		t.Errorf("16-way config rejected: %v", err)
	}
	_, err := New(Config{Name: "f", Sets: 4, Ways: 17, MSHRs: 1}, &fakeLower{})
	if err == nil || !strings.Contains(err.Error(), "packed LRU stack") {
		t.Errorf("17-way config: err = %v, want the packed-stack limit", err)
	}
	if _, err := New(Config{Name: "d", Sets: 4, Ways: 1, MSHRs: 1}, nil); err == nil {
		t.Error("nil lower level accepted")
	}
	cfg := Config{Sets: 64, Ways: 8, MSHRs: 8}
	if cfg.SizeBytes() != 64*8*64 {
		t.Errorf("SizeBytes = %d", cfg.SizeBytes())
	}
}

func TestMissThenHit(t *testing.T) {
	lower := &fakeLower{latency: 100}
	c := smallCache(t, lower)

	ready := c.Access(load(0x1000), 0)
	if ready != 102 { // 2 (own latency) + 100 (lower)
		t.Fatalf("miss ready = %d, want 102", ready)
	}
	if c.Stats.DemandMisses != 1 || c.Stats.DemandHits != 0 {
		t.Fatalf("stats after miss: %+v", c.Stats)
	}

	ready = c.Access(load(0x1000), 200)
	if ready != 202 {
		t.Fatalf("hit ready = %d, want 202", ready)
	}
	if c.Stats.DemandHits != 1 {
		t.Fatalf("stats after hit: %+v", c.Stats)
	}
	if len(lower.accesses) != 1 {
		t.Fatalf("lower saw %d accesses, want 1", len(lower.accesses))
	}
}

func TestHitWaitsForInflightFill(t *testing.T) {
	lower := &fakeLower{latency: 100}
	c := smallCache(t, lower)
	c.Access(load(0x1000), 0) // ready at 102
	// A demand at cycle 50 must wait for the fill, not observe a 2-cycle hit.
	ready := c.Access(load(0x1000), 50)
	if ready != 102 {
		t.Fatalf("in-flight merge ready = %d, want 102", ready)
	}
	if c.Stats.DemandMisses != 2 {
		t.Fatalf("merge should count as a miss: %+v", c.Stats)
	}
}

// TestOvertakenFillRefillsInPlace sends a demand to a line whose prefetch
// fill was issued later than the demand's cycle. The demand cannot see that
// block and misses; its fill must replace the block in its own way (one
// eviction: the wasted prefetch) and leave the set's other way empty.
func TestOvertakenFillRefillsInPlace(t *testing.T) {
	c := smallCache(t, &fakeLower{latency: 100})
	c.Access(&Request{PA: 0x1000, Type: mem.Prefetch}, 200) // set 0, way 0
	c.Access(load(0x1000), 50)
	checkAfter(t, c, 50, "")
	c.Access(load(0x2000), 60) // set 0 again: takes the empty way
	if c.Stats.Evictions != 1 || c.Stats.UselessPrefetches != 1 || !c.Contains(0x1000) {
		t.Fatalf("the overtaken line was not refilled in place: %+v", c.Stats)
	}
}

func TestLRUReplacement(t *testing.T) {
	lower := &fakeLower{latency: 10}
	c := smallCache(t, lower) // 4 sets → same set every 4 lines (256B stride)

	// Three lines mapping to set 0: line IDs 0, 4, 8 → addresses 0x000, 0x100, 0x200.
	c.Access(load(0x000), 0)
	c.Access(load(0x100), 10)
	c.Access(load(0x000), 20) // touch 0x000 so 0x100 becomes LRU
	c.Access(load(0x200), 30) // evicts 0x100

	if !c.Contains(0x000) || !c.Contains(0x200) {
		t.Fatal("resident blocks missing")
	}
	if c.Contains(0x100) {
		t.Fatal("LRU victim not evicted")
	}
	if c.Stats.Evictions != 1 {
		t.Fatalf("evictions = %d", c.Stats.Evictions)
	}
}

func TestPrefetchUsefulAccounting(t *testing.T) {
	lower := &fakeLower{latency: 10}
	c := smallCache(t, lower)

	pf := &Request{PA: 0x1000, Type: mem.Prefetch, IsPageCross: true}
	c.Access(pf, 0)
	if c.Stats.PrefetchFills != 1 || c.Stats.PGCIssued != 1 {
		t.Fatalf("prefetch fill stats: %+v", c.Stats)
	}

	var hit HitInfo
	c.OnDemandHit = func(h HitInfo) { hit = h }
	c.Access(load(0x1000), 100)
	if c.Stats.UsefulPrefetches != 1 || c.Stats.PGCUseful != 1 {
		t.Fatalf("useful stats: %+v", c.Stats)
	}
	if !hit.Prefetch || !hit.PageCross || !hit.FirstHit {
		t.Fatalf("hit info: %+v", hit)
	}
	// Second hit must not double-count usefulness.
	c.Access(load(0x1000), 200)
	if c.Stats.UsefulPrefetches != 1 {
		t.Fatal("useful prefetch double counted")
	}
}

func TestPrefetchUselessOnEvict(t *testing.T) {
	lower := &fakeLower{latency: 10}
	c := smallCache(t, lower)
	var evicted []EvictInfo
	c.OnEvict = func(e EvictInfo) { evicted = append(evicted, e) }

	c.Access(&Request{PA: 0x000, Type: mem.Prefetch, IsPageCross: true}, 0)
	// Fill the set and force the prefetched block out without any demand hit.
	c.Access(load(0x100), 10)
	c.Access(load(0x200), 20)

	if c.Stats.UselessPrefetches != 1 || c.Stats.PGCUseless != 1 {
		t.Fatalf("useless stats: %+v", c.Stats)
	}
	if len(evicted) != 1 {
		t.Fatalf("evict hook fired %d times", len(evicted))
	}
	e := evicted[0]
	if !e.Prefetch || !e.PageCross || e.ServedHit || e.PA != 0x000 {
		t.Fatalf("evict info: %+v", e)
	}
}

func TestDemandMissHook(t *testing.T) {
	lower := &fakeLower{latency: 10}
	c := smallCache(t, lower)
	misses := 0
	c.OnDemandMiss = func(*Request) { misses++ }
	c.Access(load(0x1000), 0)
	c.Access(load(0x1000), 100) // hit: no hook
	c.Access(load(0x1000), 5)   // in-flight merge: no full-miss hook
	if misses != 1 {
		t.Fatalf("OnDemandMiss fired %d times, want 1", misses)
	}
}

func TestMSHRLimitDropsPrefetches(t *testing.T) {
	lower := &fakeLower{latency: 1000}
	c := smallCache(t, lower) // 4 MSHRs
	for i := 0; i < 4; i++ {
		c.Access(load(mem.PAddr(0x1000+i*0x40)), 0)
	}
	before := len(lower.accesses)
	ready := c.Access(&Request{PA: 0x9000, Type: mem.Prefetch}, 1)
	if len(lower.accesses) != before {
		t.Fatal("prefetch should be dropped with full MSHRs")
	}
	if ready != 1 {
		t.Fatalf("dropped prefetch ready = %d", ready)
	}
	if c.Contains(0x9000) {
		t.Fatal("dropped prefetch must not fill")
	}
}

func TestMSHRLimitStallsDemand(t *testing.T) {
	lower := &fakeLower{latency: 1000}
	c := smallCache(t, lower)
	for i := 0; i < 4; i++ {
		c.Access(load(mem.PAddr(0x1000+i*0x40)), 0) // all ready at 1002
	}
	ready := c.Access(load(0x9000), 1)
	// Must wait until an MSHR frees (1002) before issuing: 1002+2+1000.
	if ready != 2004 {
		t.Fatalf("stalled demand ready = %d, want 2004", ready)
	}
}

func TestOutstandingMisses(t *testing.T) {
	lower := &fakeLower{latency: 100}
	c := smallCache(t, lower)
	c.Access(load(0x1000), 0)
	c.Access(load(0x2000), 0)
	if n := c.OutstandingMisses(1); n != 2 {
		t.Fatalf("outstanding = %d, want 2", n)
	}
	if n := c.OutstandingMisses(5000); n != 0 {
		t.Fatalf("outstanding after completion = %d, want 0", n)
	}
}

func TestStoreDirtyAndWriteback(t *testing.T) {
	lower := &fakeLower{latency: 10}
	c := smallCache(t, lower)
	c.Access(&Request{PA: 0x000, Type: mem.Store}, 0)
	// Evict the dirty block.
	c.Access(load(0x100), 10)
	c.Access(load(0x200), 20)
	if c.Stats.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Stats.Writebacks)
	}
}

func TestWritebackRequestUpdatesResident(t *testing.T) {
	lower := &fakeLower{latency: 10}
	c := smallCache(t, lower)
	c.Access(load(0x1000), 0)
	before := len(lower.accesses)
	c.Access(&Request{PA: 0x1000, Type: mem.Writeback}, 50)
	if len(lower.accesses) != before {
		t.Fatal("writeback hit should not go below")
	}
	// Missing writeback is forwarded down.
	c.Access(&Request{PA: 0x5000, Type: mem.Writeback}, 60)
	if len(lower.accesses) != before+1 {
		t.Fatal("missing writeback should be forwarded")
	}
}

func TestFlush(t *testing.T) {
	lower := &fakeLower{latency: 10}
	c := smallCache(t, lower)
	c.Access(load(0x1000), 0)
	c.Access(load(0x2000), 0)
	evictions := 0
	c.OnEvict = func(EvictInfo) { evictions++ }
	c.Flush()
	if evictions != 2 {
		t.Fatalf("flush evicted %d blocks, want 2", evictions)
	}
	if c.Contains(0x1000) || c.Contains(0x2000) {
		t.Fatal("blocks survive flush")
	}
}

func TestServedHitQuery(t *testing.T) {
	lower := &fakeLower{latency: 10}
	c := smallCache(t, lower)
	c.Access(&Request{PA: 0x1000, Type: mem.Prefetch}, 0)
	served, resident := c.ServedHit(0x1000)
	if !resident || served {
		t.Fatalf("fresh prefetch: served=%v resident=%v", served, resident)
	}
	c.Access(load(0x1000), 100)
	served, resident = c.ServedHit(0x1000)
	if !resident || !served {
		t.Fatalf("after hit: served=%v resident=%v", served, resident)
	}
	if _, resident := c.ServedHit(0xdead000); resident {
		t.Fatal("absent line reported resident")
	}
}

func TestDemandMergeIntoPrefetchCountsUseful(t *testing.T) {
	lower := &fakeLower{latency: 100}
	c := smallCache(t, lower)
	c.Access(&Request{PA: 0x1000, Type: mem.Prefetch, IsPageCross: true}, 0)
	// Demand arrives while the prefetch is in flight: late-but-useful.
	c.Access(load(0x1000), 10)
	// The block is resident with servedHit recorded via the merge; evicting
	// it must NOT count as useless.
	c.Access(load(0x000), 500)
	c.Access(load(0x100), 510)
	c.Access(load(0x200), 520) // set 0 holds 3 candidates; 0x1000 is in set 0? line 0x40 → set 0.
	if c.Stats.PGCUseless != 0 {
		t.Fatalf("late-but-merged prefetch counted useless: %+v", c.Stats)
	}
}
