package sim

import (
	"context"
	"testing"

	"repro/internal/prefetch"
	"repro/internal/stats"
	"repro/internal/trace"
)

func TestFDPThrottleWiring(t *testing.T) {
	cfg := testConfig(PolicyPermit)
	cfg.FDPThrottle = true
	cfg.WarmupInstrs = 5_000
	cfg.SimInstrs = 20_000
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	th, ok := sys.L1DPf.(*prefetch.Throttle)
	if !ok {
		t.Fatal("FDPThrottle did not wrap the prefetcher")
	}
	w := streamWorkload(t)
	reader, _ := w.NewReader()
	sys.Core.Attach(reader, cfg.SimInstrs)
	if err := sys.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if sys.L1D.Stats.PrefetchFills == 0 {
		t.Fatal("throttled prefetcher filled nothing")
	}
	if th.Level() < 1 || th.Level() > 4 {
		t.Fatalf("throttle level %d out of range", th.Level())
	}
}

func TestRunTraceFromRecording(t *testing.T) {
	w := streamWorkload(t)
	r, err := w.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	instrs := trace.Record(r, 30_000)
	cfg := testConfig(PolicyDripper)
	cfg.WarmupInstrs = 5_000
	cfg.SimInstrs = 20_000
	run, err := RunTrace(context.Background(), cfg, "recorded", "file", trace.NewSliceReader(instrs))
	if err != nil {
		t.Fatal(err)
	}
	if run.Core.Instructions != cfg.SimInstrs {
		t.Fatalf("retired %d", run.Core.Instructions)
	}
	if run.Workload != "recorded" || run.Suite != "file" {
		t.Fatal("naming lost")
	}
}

func TestBranchPredictorAffectsIPC(t *testing.T) {
	// A qmm workload (20% hard branches) must show a nonzero mispredict
	// rate and a lower IPC than the same run with free mispredictions.
	w, ok := trace.ByName("qmm_int.qmm_s00")
	if !ok {
		t.Fatal("workload missing")
	}
	cfg := testConfig(PolicyDiscard)
	cfg.WarmupInstrs = 10_000
	cfg.SimInstrs = 30_000
	withPenalty, err := RunWorkload(context.Background(), cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if withPenalty.Core.Mispredicts == 0 {
		t.Fatal("no mispredictions on a hard-branch workload")
	}
	cfg.Core.MispredictPenalty = 0
	free, err := RunWorkload(context.Background(), cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if withPenalty.IPC() >= free.IPC() {
		t.Fatalf("mispredict penalty has no cost: %.3f vs %.3f",
			withPenalty.IPC(), free.IPC())
	}
}

func TestCollectSnapshotIsolation(t *testing.T) {
	// Collect must deep-copy stats: mutating the system afterwards must not
	// change an earlier snapshot.
	cfg := testConfig(PolicyDiscard)
	cfg.WarmupInstrs = 2_000
	cfg.SimInstrs = 5_000
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := streamWorkload(t)
	reader, _ := w.NewReader()
	sys.Core.Attach(reader, cfg.SimInstrs)
	if err := sys.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := sys.Collect(w.Name, w.Suite)
	before := snap.Core.Instructions
	sys.Core.Attach(reader, 5_000)
	if err := sys.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if snap.Core.Instructions != before {
		t.Fatal("snapshot mutated by later simulation")
	}
}

func TestSimulatorDeterminism(t *testing.T) {
	// The entire simulator must be deterministic: identical config and
	// workload produce bit-identical statistics (reproducibility of every
	// number in EXPERIMENTS.md depends on this).
	w := streamWorkload(t)
	cfg := testConfig(PolicyDripper)
	cfg.WarmupInstrs = 10_000
	cfg.SimInstrs = 30_000
	a, err := RunWorkload(context.Background(), cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWorkload(context.Background(), cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Fatalf("two identical runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestMultiCoreDeterminism(t *testing.T) {
	mix := []trace.Workload{streamWorkload(t), pagehopWorkload(t)}
	run := func() []*stats.Run {
		mc := DefaultMultiConfig()
		mc.Cores = 2
		mc.PerCore = testConfig(PolicyDripper)
		mc.PerCore.WarmupInstrs = 3_000
		mc.PerCore.SimInstrs = 8_000
		ms, err := NewMulti(mc)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := ms.RunMix(context.Background(), mix)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	a, b := run(), run()
	for i := range a {
		if a[i].Core != b[i].Core {
			t.Fatalf("core %d diverged", i)
		}
	}
}

func TestL1IPrefetcherSelection(t *testing.T) {
	w := streamWorkload(t)
	for _, pf := range []string{"fnl+mma", "nextline", "none"} {
		cfg := testConfig(PolicyDiscard)
		cfg.L1IPrefetcher = pf
		cfg.WarmupInstrs = 2_000
		cfg.SimInstrs = 5_000
		if _, err := RunWorkload(context.Background(), cfg, w); err != nil {
			t.Fatalf("%s: %v", pf, err)
		}
	}
	cfg := testConfig(PolicyDiscard)
	cfg.L1IPrefetcher = "bogus"
	if _, err := New(cfg); err == nil {
		t.Fatal("bogus L1I prefetcher accepted")
	}
}
