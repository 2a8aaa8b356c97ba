package sim

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/trace"
)

// TestDripperRunAllocsBounded bounds the heap allocations of a full-detail
// DRIPPER run with Berti. The MSHR files, update buffers and filter tags
// are fixed-width values, so what remains is construction, first-touch page
// tables and first-touch page tracking: a small fraction of an allocation
// per simulated kilo-instruction.
func TestDripperRunAllocsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-instruction run")
	}
	cfg := DefaultConfig()
	cfg.Policy = PolicyDripper
	cfg.WarmupInstrs = 200_000
	cfg.SimInstrs = 800_000
	w, ok := trace.ByName("spec.stream_s00")
	if !ok {
		t.Fatal("workload missing")
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := RunWorkload(context.Background(), cfg, w); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	perK := float64(m1.Mallocs-m0.Mallocs) / float64(cfg.WarmupInstrs+cfg.SimInstrs) * 1e3
	if perK >= 5 {
		t.Fatalf("%.2f allocs/kinstr, want < 5", perK)
	}
	t.Logf("%.3f allocs/kinstr", perK)
}
