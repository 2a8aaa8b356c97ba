package mmu

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/metrics"
)

// register exports the whole translation path under the names a simulated
// system gives it.
func register(r *metrics.Registry, mm *MMU) {
	r.Source("dtlb", mm.DTLB)
	r.Source("itlb", mm.ITLB)
	r.Source("stlb", mm.STLB)
	mm.PTW.RegisterMetrics(r, "ptw")
}

func TestRegisterMetricsAndTracer(t *testing.T) {
	mm, _, _ := newMMU(t)
	r := metrics.NewRegistry()
	register(r, mm)
	tr, err := metrics.NewTracer(64)
	if err != nil {
		t.Fatal(err)
	}
	mm.SetTracer(tr)
	if mm.PTW.Trace != tr {
		t.Fatal("SetTracer did not reach the walker")
	}

	va := mem.VAddr(0x7000_1111_2000)
	mm.TranslateData(va, 0)    // cold: dTLB miss, sTLB miss, walk
	mm.TranslateData(va, 1000) // warm: dTLB hit

	v := func(name string) uint64 {
		x, ok := r.Value(name)
		if !ok {
			t.Fatalf("metric %q not registered", name)
		}
		return x
	}
	if v("dtlb.demand_accesses") != 2 || v("dtlb.demand_misses") != 1 {
		t.Fatalf("dtlb: accesses=%d misses=%d",
			v("dtlb.demand_accesses"), v("dtlb.demand_misses"))
	}
	if v("ptw.walks") != 1 {
		t.Fatalf("ptw.walks = %d", v("ptw.walks"))
	}
	// All four prefixes must be present.
	for _, name := range []string{"itlb.demand_accesses", "stlb.demand_misses"} {
		if _, ok := r.Value(name); !ok {
			t.Errorf("metric %q missing", name)
		}
	}
	if tr.KindCount(metrics.EvTLBMiss) == 0 {
		t.Fatal("no tlb-miss events traced for a cold translation")
	}
	if tr.KindCount(metrics.EvWalkEnd) != 1 {
		t.Fatalf("walk-end events = %d", tr.KindCount(metrics.EvWalkEnd))
	}
}
