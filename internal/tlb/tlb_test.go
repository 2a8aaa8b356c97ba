package tlb

import (
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/vmem"
)

func newTLB(t *testing.T, sets, ways int) *TLB {
	t.Helper()
	tl, err := New(Config{Name: "test", Sets: sets, Ways: ways, Latency: 1})
	if err != nil {
		t.Fatal(err)
	}
	return tl
}

func tr4K(base mem.PAddr) vmem.Translation {
	return vmem.Translation{Base: base, Kind: mem.Page4K}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Sets: 3, Ways: 1}); err == nil {
		t.Fatal("non-power-of-two sets accepted")
	}
	if _, err := New(Config{Sets: 4, Ways: 0}); err == nil {
		t.Fatal("zero ways accepted")
	}
	if _, err := New(Config{Sets: 4, Ways: 16}); err != nil {
		t.Fatalf("16-way TLB rejected: %v", err)
	}
	// A set's LRU order is one word of sixteen 4-bit way ids.
	if _, err := New(Config{Sets: 4, Ways: 17}); err == nil || !strings.Contains(err.Error(), "packed LRU stack") {
		t.Fatalf("17-way TLB: err = %v, want the packed-stack limit", err)
	}
	if (Config{Sets: 16, Ways: 4}).Entries() != 64 {
		t.Fatal("Entries wrong")
	}
}

func TestMissThenHit(t *testing.T) {
	tl := newTLB(t, 16, 4)
	va := mem.VAddr(0x7fff_0000_1234)
	if _, hit := tl.Lookup(va, true); hit {
		t.Fatal("empty TLB hit")
	}
	tl.Insert(va, tr4K(0x9000_0000), false)
	got, hit := tl.Lookup(va, true)
	if !hit || got.Base != 0x9000_0000 || got.Kind != mem.Page4K {
		t.Fatalf("lookup after insert: %+v hit=%v", got, hit)
	}
	// Same page, different offset.
	if _, hit := tl.Lookup(va+0x500, true); !hit {
		t.Fatal("same-page lookup missed")
	}
	if tl.Stats.DemandAccesses != 3 || tl.Stats.DemandMisses != 1 || tl.Stats.DemandHits != 2 {
		t.Fatalf("stats: %+v", tl.Stats)
	}
}

func TestProbeHasNoSideEffects(t *testing.T) {
	tl := newTLB(t, 16, 4)
	va := mem.VAddr(0x1000)
	if tl.Probe(va) {
		t.Fatal("probe hit on empty TLB")
	}
	tl.Insert(va, tr4K(0x5000), false)
	if !tl.Probe(va) {
		t.Fatal("probe missed resident entry")
	}
	if tl.Stats.DemandAccesses != 0 {
		t.Fatal("probe counted as demand access")
	}
}

func TestLRUEviction(t *testing.T) {
	tl := newTLB(t, 1, 2) // 2 entries total
	a, b, c := mem.VAddr(0x1000), mem.VAddr(0x2000), mem.VAddr(0x3000)
	tl.Insert(a, tr4K(0xa000), false)
	tl.Insert(b, tr4K(0xb000), false)
	tl.Lookup(a, true) // refresh a
	tl.Insert(c, tr4K(0xc000), false)
	if !tl.Probe(a) || !tl.Probe(c) {
		t.Fatal("wrong entries resident")
	}
	if tl.Probe(b) {
		t.Fatal("LRU entry not evicted")
	}
	if tl.Stats.Evictions != 1 {
		t.Fatalf("evictions = %d", tl.Stats.Evictions)
	}
}

func TestInsertRefreshesInPlace(t *testing.T) {
	tl := newTLB(t, 1, 2)
	va := mem.VAddr(0x1000)
	tl.Insert(va, tr4K(0xa000), false)
	tl.Insert(va, tr4K(0xa000), false) // same page again
	if tl.Stats.Evictions != 0 {
		t.Fatal("re-insert of same page should not evict")
	}
	tl.Insert(0x2000, tr4K(0xb000), false)
	if !tl.Probe(va) || !tl.Probe(0x2000) {
		t.Fatal("both pages should fit")
	}
}

func TestLargePageEntries(t *testing.T) {
	tl := newTLB(t, 16, 4)
	va := mem.VAddr(0x4000_0000) // 2M aligned
	tl.Insert(va, vmem.Translation{Base: 0x8000_0000, Kind: mem.Page2M}, false)
	// Any 4K page within the 2M region must hit.
	got, hit := tl.Lookup(va+37*mem.PageSize+5, true)
	if !hit || got.Kind != mem.Page2M {
		t.Fatalf("2M lookup: %+v hit=%v", got, hit)
	}
	// An address in the next 2M region must miss.
	if _, hit := tl.Lookup(va+mem.LargePageSize, true); hit {
		t.Fatal("adjacent 2M region should miss")
	}
}

func TestPrefetchFillAccounting(t *testing.T) {
	tl := newTLB(t, 16, 4)
	va := mem.VAddr(0x1000)
	tl.Insert(va, tr4K(0x5000), true)
	if tl.Stats.PrefetchFills != 1 {
		t.Fatalf("prefetch fills = %d", tl.Stats.PrefetchFills)
	}
	tl.Lookup(va, true)
	if tl.Stats.UsefulPrefetches != 1 {
		t.Fatal("prefetch-filled translation used by demand should count useful")
	}
	tl.Lookup(va, true)
	if tl.Stats.UsefulPrefetches != 1 {
		t.Fatal("useful translation double counted")
	}
}

func TestUselessPrefetchTranslationOnEvict(t *testing.T) {
	tl := newTLB(t, 1, 1)
	tl.Insert(0x1000, tr4K(0xa000), true)
	tl.Insert(0x2000, tr4K(0xb000), false) // evicts without use
	if tl.Stats.UselessPrefetches != 1 {
		t.Fatalf("useless prefetch translations = %d", tl.Stats.UselessPrefetches)
	}
}

func TestFlush(t *testing.T) {
	tl := newTLB(t, 16, 4)
	tl.Insert(0x1000, tr4K(0xa000), false)
	tl.Flush()
	if tl.Probe(0x1000) {
		t.Fatal("entry survives flush")
	}
}
