package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/trace"
)

// testWorkload returns a known workload with small budgets applied to cfg.
func testWorkload(t *testing.T, cfg *Config) trace.Workload {
	t.Helper()
	w, ok := trace.ByName("spec.stream_s00")
	if !ok {
		t.Fatal("workload spec.stream_s00 missing")
	}
	cfg.WarmupInstrs = 5_000
	cfg.SimInstrs = 20_000
	return w
}

func TestWatchdogCatchesInjectedStall(t *testing.T) {
	cfg := DefaultConfig()
	w := testWorkload(t, &cfg)
	// Seeded deadlock: after 8k retired instructions every load completes
	// ~2^40 cycles out, so the ROB head never unblocks. The watchdog must
	// catch it within its bound instead of spinning forever.
	cfg.FaultInject = faultinject.New(faultinject.Config{StallRetireAfter: 8_000})
	cfg.Watchdog = WatchdogConfig{NoRetireBound: 50_000, PollEvery: 1_000}

	_, err := RunWorkload(context.Background(), cfg, w)
	if err == nil {
		t.Fatal("stalled run completed")
	}
	var stall *StallError
	if !errors.As(err, &stall) {
		t.Fatalf("error %v is not a StallError", err)
	}
	if stall.Reason != StallNoRetire || stall.Bound != 50_000 {
		t.Fatalf("stall = %+v, want no-retire bound 50000", stall)
	}
	// The diagnostic snapshot must localise the stall: a stuck ROB head
	// whose claimed completion is far beyond the abort cycle.
	s := stall.Snap
	if s.Cycle == 0 || s.Retired < 8_000 {
		t.Fatalf("snapshot not populated: %s", s)
	}
	if s.ROBOccupancy == 0 {
		t.Fatalf("stalled ROB should be occupied: %s", s)
	}
	if s.ROBHeadReady <= s.Cycle {
		t.Fatalf("ROB head claims ready %d before abort cycle %d", s.ROBHeadReady, s.Cycle)
	}
	if s.Cycle-s.LastRetireCycle <= 50_000 {
		t.Fatalf("abort before the bound elapsed: %s", s)
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("error %v is not wrapped in a RunError", err)
	}
	if Retryable(err) {
		t.Fatal("a deterministic stall must not be retryable")
	}
}

func TestWatchdogCycleCeiling(t *testing.T) {
	cfg := DefaultConfig()
	w := testWorkload(t, &cfg)
	cfg.SimInstrs = 100_000_000 // far beyond the ceiling
	cfg.WarmupInstrs = 0
	cfg.Watchdog = WatchdogConfig{MaxCycles: 20_000, PollEvery: 1_000}

	_, err := RunWorkload(context.Background(), cfg, w)
	var stall *StallError
	if !errors.As(err, &stall) {
		t.Fatalf("want StallError, got %v", err)
	}
	if stall.Reason != StallCycleCeiling {
		t.Fatalf("reason = %s, want %s", stall.Reason, StallCycleCeiling)
	}
}

func TestRunTraceCancellationIsPrompt(t *testing.T) {
	cfg := DefaultConfig()
	w := testWorkload(t, &cfg)
	cfg.SimInstrs = 2_000_000_000 // would run for minutes uncancelled
	cfg.WarmupInstrs = 0

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	run, err := RunWorkload(ctx, cfg, w)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Mid-measurement interruption returns the partial statistics.
	if run == nil || run.Core.Instructions == 0 {
		t.Fatal("partial statistics missing on mid-measurement cancellation")
	}
}

func TestDefaultWatchdogDoesNotFireOnHealthyRuns(t *testing.T) {
	cfg := DefaultConfig()
	w := testWorkload(t, &cfg)
	run, err := RunWorkload(context.Background(), cfg, w)
	if err != nil {
		t.Fatalf("healthy run failed: %v", err)
	}
	if run.Core.Instructions != cfg.SimInstrs {
		t.Fatalf("retired %d, want %d", run.Core.Instructions, cfg.SimInstrs)
	}
}

func TestInjectedMemLatencyDegradesIPC(t *testing.T) {
	cfg := DefaultConfig()
	w := testWorkload(t, &cfg)
	base, err := RunWorkload(context.Background(), cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	slow := cfg
	slow.FaultInject = faultinject.New(faultinject.Config{ExtraMemLatency: 2_000})
	degraded, err := RunWorkload(context.Background(), slow, w)
	if err != nil {
		t.Fatalf("latency-injected run must still terminate: %v", err)
	}
	if degraded.IPC() >= base.IPC() {
		t.Fatalf("injected DRAM latency did not hurt IPC: %.4f vs %.4f", degraded.IPC(), base.IPC())
	}

	// The shared DRAM of a mix is built by the same constructor, so the
	// injected latency must reach it too.
	mixIPC := func(cfg Config) float64 {
		t.Helper()
		mc := DefaultMultiConfig()
		mc.Cores = 2
		mc.PerCore = cfg
		mc.PerCore.Core.ReplayOnEnd = true
		m, err := NewMulti(mc)
		if err != nil {
			t.Fatal(err)
		}
		runs, err := m.RunMix(context.Background(), []trace.Workload{w, w})
		if err != nil {
			t.Fatalf("mix must still terminate: %v", err)
		}
		return runs[0].IPC()
	}
	if b, d := mixIPC(cfg), mixIPC(slow); d >= b {
		t.Fatalf("injected DRAM latency did not hurt the mix's IPC: %.4f vs %.4f", d, b)
	}
}

// TestRunMixInjectedTransientFailureIsRetryable: a mix is one run attempt,
// like a single-core run, so FailAttempts fails it with a retryable error
// and the retry succeeds.
func TestRunMixInjectedTransientFailureIsRetryable(t *testing.T) {
	mc := DefaultMultiConfig()
	mc.Cores = 2
	w := testWorkload(t, &mc.PerCore)
	mc.PerCore.FaultInject = faultinject.New(faultinject.Config{FailAttempts: 1})
	m, err := NewMulti(mc)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.RunMix(context.Background(), []trace.Workload{w, w})
	if err == nil || !Retryable(err) {
		t.Fatalf("first attempt: err = %v, want a retryable error", err)
	}
	if _, err := m.RunMix(context.Background(), []trace.Workload{w, w}); err != nil {
		t.Fatalf("retry: %v", err)
	}
}

func TestRunMixCancellation(t *testing.T) {
	mc := DefaultMultiConfig()
	mc.Cores = 2
	mc.PerCore.WarmupInstrs = 0
	mc.PerCore.SimInstrs = 2_000_000_000
	m, err := NewMulti(mc)
	if err != nil {
		t.Fatal(err)
	}
	mix := []trace.Workload{trace.Seen()[0], trace.Seen()[1]}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if _, err := m.RunMix(ctx, mix); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("multi-core cancellation took %v", elapsed)
	}
}

func TestRunMixWatchdogCatchesStall(t *testing.T) {
	mc := DefaultMultiConfig()
	mc.Cores = 2
	mc.PerCore.WarmupInstrs = 0
	mc.PerCore.SimInstrs = 50_000
	mc.PerCore.FaultInject = faultinject.New(faultinject.Config{StallRetireAfter: 4_000})
	mc.PerCore.Watchdog = WatchdogConfig{NoRetireBound: 50_000}
	m, err := NewMulti(mc)
	if err != nil {
		t.Fatal(err)
	}
	mix := []trace.Workload{trace.Seen()[0], trace.Seen()[1]}
	_, err = m.RunMix(context.Background(), mix)
	var stall *StallError
	if !errors.As(err, &stall) {
		t.Fatalf("want StallError, got %v", err)
	}
	if stall.Reason != StallNoRetire || stall.Bound != 50_000 {
		t.Fatalf("stall = %+v, want no-retire bound 50000", stall)
	}
	// The snapshot is of a stuck core: nothing retired for the bound, and
	// the ROB holds the blocked instructions.
	s := stall.Snap
	if s.Retired < 4_000 {
		t.Fatalf("snapshot not populated: %s", s)
	}
	if s.Cycle-s.LastRetireCycle <= 50_000 {
		t.Fatalf("abort before the bound elapsed: %s", s)
	}
	if s.ROBOccupancy == 0 {
		t.Fatalf("stalled ROB should be occupied: %s", s)
	}
}

func TestRunMixWatchdogCycleCeiling(t *testing.T) {
	mc := DefaultMultiConfig()
	mc.Cores = 2
	mc.PerCore.WarmupInstrs = 0
	mc.PerCore.SimInstrs = 100_000_000 // far beyond the ceiling
	mc.PerCore.Watchdog = WatchdogConfig{MaxCycles: 20_000, PollEvery: 1_024}
	m, err := NewMulti(mc)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.RunMix(context.Background(), []trace.Workload{trace.Seen()[0], trace.Seen()[1]})
	var stall *StallError
	if !errors.As(err, &stall) {
		t.Fatalf("want StallError, got %v", err)
	}
	if stall.Reason != StallCycleCeiling || stall.Bound != 20_000 {
		t.Fatalf("stall = %+v, want cycle-ceiling bound 20000", stall)
	}
	if s := stall.Snap; s.Cycle <= 20_000 || s.Retired == 0 {
		t.Fatalf("snapshot should be of a core past the ceiling: %s", s)
	}

	// The ceiling counts per phase, as on one core: warmup (~23k cycles)
	// and measure (~28k) each fit under 40k although together they do not.
	mc.PerCore.WarmupInstrs = 20_000
	mc.PerCore.SimInstrs = 20_000
	mc.PerCore.Watchdog.MaxCycles = 40_000
	if m, err = NewMulti(mc); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunMix(context.Background(), []trace.Workload{trace.Seen()[0], trace.Seen()[1]}); err != nil {
		t.Fatalf("phases under the ceiling aborted: %v", err)
	}
	if c := m.Systems[0].Core.Cycle(); c <= 40_000 {
		t.Fatalf("mix ran %d cycles in all; the case needs more than the ceiling", c)
	}
}

// TestRaceMulticoreDifferential runs checked sim-vs-oracle mixes on the
// multicore path with several campaigns in flight at GOMAXPROCS=4. Its value
// is under the race detector (the CI checks job runs this suite with -race):
// the per-core checkers, the shared LLC/DRAM, and the sweep grain must not
// introduce cross-goroutine hazards.
func TestRaceMulticoreDifferential(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	mixes := [][2]string{
		{"spec.stream_s00", "spec.pagehop_s00"},
		{"gap.graph_s00", "qmm_int.qmm_s00"},
		{"spec.stream_u00", "gap.graph_u00"},
	}
	var wg sync.WaitGroup
	errs := make([]error, len(mixes))
	for i, names := range mixes {
		wg.Add(1)
		go func(i int, names [2]string) {
			defer wg.Done()
			mc := DefaultMultiConfig()
			mc.Cores = 2
			mc.PerCore.WarmupInstrs = 2_000
			mc.PerCore.SimInstrs = 8_000
			mc.PerCore.Check.Enabled = true
			m, err := NewMulti(mc)
			if err != nil {
				errs[i] = err
				return
			}
			var mix []trace.Workload
			for _, n := range names {
				w, ok := trace.ByName(n)
				if !ok {
					errs[i] = fmt.Errorf("workload %s missing", n)
					return
				}
				mix = append(mix, w)
			}
			_, errs[i] = m.RunMix(context.Background(), mix)
		}(i, names)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("mix %v: checked differential run failed: %v", mixes[i], err)
		}
	}
}
