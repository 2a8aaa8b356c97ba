package sim

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// allocsPerKinstr runs a 1M-instruction full-detail workload under policy
// and returns its heap allocations per simulated kilo-instruction.
func allocsPerKinstr(t *testing.T, policy PolicyKind, workload string) float64 {
	t.Helper()
	if testing.Short() {
		t.Skip("1M-instruction run")
	}
	cfg := DefaultConfig()
	cfg.Policy = policy
	cfg.WarmupInstrs = 200_000
	cfg.SimInstrs = 800_000
	w, ok := trace.ByName(workload)
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
	t.Logf("%.3f allocs/kinstr", perK)
	return perK
}

// TestDripperRunAllocsBounded bounds the heap allocations of a full-detail
// DRIPPER run with Berti. The MSHR files, update buffers and filter tags
// are fixed-width values, DRIPPER reads no first-touch bit and the metrics
// registry builds nothing until it is read, so what remains is
// construction and the page tables of newly touched memory: about 0.21
// allocations per simulated kilo-instruction.
func TestDripperRunAllocsBounded(t *testing.T) {
	if perK := allocsPerKinstr(t, PolicyDripper, "spec.stream_s00"); perK >= 0.4 {
		t.Fatalf("%.3f allocs/kinstr, want < 0.4", perK)
	}
}

// TestNewAllocBudget bounds what building a system allocates. Every
// component's counters enter the registry as one view source, so
// registration costs a slice entry per component plus the histograms the
// hot path observes; the rest is the models' own tables. New measures 160.
func TestNewAllocBudget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = PolicyDripper
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := New(cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("New: %.0f allocs", allocs)
	if allocs > 165 {
		t.Fatalf("New allocates %.0f times, want <= 165", allocs)
	}
}

// TestChaseRunAllocsBounded is the translation-bound twin: pointer chasing
// under Discard touches tens of thousands of pages and walks on a tenth of
// its instructions. The page table allocates one object per new table page,
// the walk file none per walk, and Discard builds no first-touch map.
func TestChaseRunAllocsBounded(t *testing.T) {
	if perK := allocsPerKinstr(t, PolicyDiscard, "spec.chase_u00"); perK >= 1 {
		t.Fatalf("%.2f allocs/kinstr, want < 1", perK)
	}
}

// sampledAllocs returns the heap allocations of one sampled run of workload
// with the given sampling period (0 = auto) and the number of segments the
// run's plan holds.
func sampledAllocs(t *testing.T, w trace.Workload, period uint64) (allocs uint64, segments int) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Policy = PolicyDripper
	cfg.WarmupInstrs = 10_000
	cfg.SimInstrs = 1_000_000
	cfg.Sample = SampleConfig{Enabled: true, PeriodInstrs: period, Seed: w.Config.Seed}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := RunWorkload(context.Background(), cfg, w); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs, len(cfg.Sample.Plan(cfg.SimInstrs))
}

// TestSampledAllocsFlatInSegments bounds what each sampling segment may
// allocate: nothing. The warm pipeline's worker, channels and batch buffers
// are built once per run and the ramp's counter snapshots are reused, so an
// explicit short period — many times the auto period's segment count — may
// differ from the auto period by a small constant (the page tables of the
// memory each schedule touches), not by anything per segment.
func TestSampledAllocsFlatInSegments(t *testing.T) {
	w, ok := trace.ByName("spec.stream_s00")
	if !ok {
		t.Fatal("workload missing")
	}
	sampledAllocs(t, w, 0) // first-use allocations of the process
	auto, autoSegs := sampledAllocs(t, w, 0)
	short, shortSegs := sampledAllocs(t, w, 4_000)
	t.Logf("auto period: %d allocs over %d segments; 4000-instr period: %d allocs over %d segments", auto, autoSegs, short, shortSegs)
	if shortSegs < autoSegs+200 {
		t.Fatalf("short period plans %d segments against %d: too few to expose per-segment allocations", shortSegs, autoSegs)
	}
	const slack = 64
	if short > auto+slack || auto > short+slack {
		t.Fatalf("allocations move with segment count: %d over %d segments, %d over %d (slack %d)", auto, autoSegs, short, shortSegs, slack)
	}
}

// TestWarmHandoffZeroAlloc pins the steady state of the pipeline: filling
// and handing off batches, and draining them, allocates nothing.
func TestWarmHandoffZeroAlloc(t *testing.T) {
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := s.newWarmPipe(false)
	defer p.stop()
	var line uint64
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 3*warmBatchOps+17; i++ {
			line += mem.LineSize
			p.emit(line | opStore)
		}
		p.drain()
	})
	if allocs != 0 {
		t.Fatalf("batch handoff allocates %.1f times per run, want 0", allocs)
	}
}
