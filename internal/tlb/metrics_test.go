package tlb

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/metrics"
)

func TestRegisterMetrics(t *testing.T) {
	tl := newTLB(t, 16, 4)
	r := metrics.NewRegistry()
	r.Source("dtlb", tl)

	va := mem.VAddr(0x1000)
	tl.Lookup(va, true) // miss
	tl.Insert(va, tr4K(0x8000), false)
	tl.Lookup(va, true) // hit

	if v, _ := r.Value("dtlb.demand_accesses"); v != 2 {
		t.Fatalf("demand_accesses = %d", v)
	}
	if v, _ := r.Value("dtlb.demand_misses"); v != 1 {
		t.Fatalf("demand_misses = %d", v)
	}
	if v, ok := r.Value("dtlb.entries"); !ok || v != 64 {
		t.Fatalf("entries gauge = %d, %v", v, ok)
	}
}
