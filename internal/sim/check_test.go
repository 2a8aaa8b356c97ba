package sim

import (
	"context"
	"errors"
	"os"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/trace"
)

// checkConfig returns a small checked configuration for differential tests.
func checkConfig() Config {
	cfg := DefaultConfig()
	cfg.WarmupInstrs = 5_000
	cfg.SimInstrs = 20_000
	cfg.Check.Enabled = true
	return cfg
}

// TestCheckCleanRun proves the oracle agrees with the timing simulator on a
// healthy system across every page-cross policy: a checked run must complete
// without a single violation.
func TestCheckCleanRun(t *testing.T) {
	for _, policy := range []PolicyKind{PolicyDiscard, PolicyPermit, PolicyDiscardPTW, PolicyDripper, PolicyPPF, PolicyDripperSF} {
		t.Run(string(policy), func(t *testing.T) {
			cfg := checkConfig()
			cfg.Policy = policy
			w, ok := trace.ByName("spec.pagehop_s00")
			if !ok {
				t.Fatal("workload missing")
			}
			if _, err := RunWorkload(context.Background(), cfg, w); err != nil {
				t.Fatalf("checked run failed: %v", err)
			}
		})
	}
}

// TestCheckCleanRunFamilies sweeps one workload per generator family through
// a checked DRIPPER run.
func TestCheckCleanRunFamilies(t *testing.T) {
	names := []string{
		"spec.stream_s00", "spec.pagehop_s00", "spec.chase_s00",
		"gap.graph_s00", "parsec.parsec_s00", "spec.phased_s00",
		"qmm_int.qmm_s00", "spec.hot_00",
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			cfg := checkConfig()
			cfg.Policy = PolicyDripper
			w, ok := trace.ByName(name)
			if !ok {
				t.Fatalf("workload %s missing", name)
			}
			if _, err := RunWorkload(context.Background(), cfg, w); err != nil {
				t.Fatalf("checked run failed: %v", err)
			}
		})
	}
}

// TestInjectedMSHRLeakCaught is the first acceptance bug: an injected L1D
// MSHR release leak must be caught by the checker, classified under the
// "check" ledger stage, and shrunk to a minimal repro trace on disk.
func TestInjectedMSHRLeakCaught(t *testing.T) {
	cfg := checkConfig()
	cfg.FaultInject = faultinject.New(faultinject.Config{MSHRLeakEveryN: 20})
	w, ok := trace.ByName("spec.stream_s00")
	if !ok {
		t.Fatal("workload missing")
	}

	_, err := RunWorkload(context.Background(), cfg, w)
	ce := CheckFailure(err)
	if ce == nil {
		t.Fatalf("leaked run returned %v, want a CheckError", err)
	}
	first := ce.First()
	if first.Invariant != "mshr-leak" || first.Component != "l1d" {
		t.Fatalf("first violation = %v, want an l1d mshr-leak", first)
	}
	var re *RunError
	if !errors.As(err, &re) || re.Stage != "check" {
		t.Fatalf("error %v not ledgered under the check stage", err)
	}
	if Retryable(err) {
		t.Fatal("a deterministic invariant violation must not be retryable")
	}

	// Differential harness: shrink to a minimal repro and emit it.
	res, derr := DiffWorkload(cfg, w, 4_000, t.TempDir())
	if derr != nil {
		t.Fatalf("diff harness failed: %v", derr)
	}
	if res.Err == nil {
		t.Fatal("diff harness missed the injected leak")
	}
	if len(res.Minimal) == 0 || len(res.Minimal) >= 4_000 {
		t.Fatalf("shrink produced %d instructions, want a strict reduction", len(res.Minimal))
	}
	if res.ReproPath == "" {
		t.Fatal("no repro trace emitted")
	}
	f, err := os.Open(res.ReproPath)
	if err != nil {
		t.Fatalf("repro trace unreadable: %v", err)
	}
	defer f.Close()
	replay, err := trace.ReadTrace(f)
	if err != nil {
		t.Fatalf("repro trace corrupt: %v", err)
	}
	if CheckFailure(DiffTrace(cfg, w.Name, replay)) == nil {
		t.Fatal("replayed repro trace no longer violates")
	}
}

// TestInjectedMSHRLeakDeterministic pins the leaked run's report: the MSHR
// file retires its entries in a fixed order, so which fill loses its
// release — and with it the first violation's line and cycle — is the same
// on every run.
func TestInjectedMSHRLeakDeterministic(t *testing.T) {
	w, ok := trace.ByName("spec.stream_s00")
	if !ok {
		t.Fatal("workload missing")
	}
	var first string
	for i := 0; i < 4; i++ {
		cfg := checkConfig()
		cfg.FaultInject = faultinject.New(faultinject.Config{MSHRLeakEveryN: 20})
		_, err := RunWorkload(context.Background(), cfg, w)
		ce := CheckFailure(err)
		if ce == nil {
			t.Fatalf("run %d returned %v, want a CheckError", i, err)
		}
		if i == 0 {
			first = ce.Error()
		} else if got := ce.Error(); got != first {
			t.Fatalf("run %d reported\n%s\nrun 0 reported\n%s", i, got, first)
		}
	}
}

// TestInjectedTLBStalePTECaught is the second acceptance bug: a dTLB entry
// whose cached frame no longer matches the page table must be caught by the
// TLB ⇒ valid-PTE cross-check, with a minimal repro emitted.
func TestInjectedTLBStalePTECaught(t *testing.T) {
	cfg := checkConfig()
	cfg.FaultInject = faultinject.New(faultinject.Config{TLBStaleEveryN: 5})
	w, ok := trace.ByName("gap.graph_s00")
	if !ok {
		t.Fatal("workload missing")
	}

	_, err := RunWorkload(context.Background(), cfg, w)
	ce := CheckFailure(err)
	if ce == nil {
		t.Fatalf("stale-PTE run returned %v, want a CheckError", err)
	}
	first := ce.First()
	if first.Invariant != "tlb-stale-pte" {
		t.Fatalf("first violation = %v, want tlb-stale-pte", first)
	}

	res, derr := DiffWorkload(cfg, w, 4_000, t.TempDir())
	if derr != nil {
		t.Fatalf("diff harness failed: %v", derr)
	}
	if res.Err == nil || res.ReproPath == "" {
		t.Fatalf("diff harness result %+v, want violation with repro", res)
	}
	if len(res.Minimal) >= 4_000 {
		t.Fatalf("shrink produced %d instructions, want a strict reduction", len(res.Minimal))
	}
}

// TestCheckFailFastReturnsEarly proves FailFast ends the run at the first
// poll that observes a violation and returns that poll's *CheckError, under
// the "check" stage, long before the budget retires.
func TestCheckFailFastReturnsEarly(t *testing.T) {
	cfg := checkConfig()
	cfg.Check.FailFast = true
	cfg.FaultInject = faultinject.New(faultinject.Config{MSHRLeakEveryN: 20})
	w, ok := trace.ByName("spec.stream_s00")
	if !ok {
		t.Fatal("workload missing")
	}
	reader, err := w.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	_, sys, err := RunTraceSystem(context.Background(), cfg, w.Name, w.Suite, reader)
	ce := CheckFailure(err)
	if ce == nil {
		t.Fatalf("FailFast run returned %v, want a CheckError", err)
	}
	if first := ce.First(); first == nil || first.Invariant != "mshr-leak" {
		t.Fatalf("first violation = %v, want an mshr-leak", first)
	}
	var re *RunError
	if !errors.As(err, &re) || re.Stage != "check" || re.Panicked {
		t.Fatalf("error %v not returned under the check stage", err)
	}
	if budget, retired := cfg.WarmupInstrs+cfg.SimInstrs, sys.Core.RetiredTotal(); retired >= budget {
		t.Fatalf("FailFast run retired %d of %d instructions, want an early stop", retired, budget)
	}
}

// TestCheckDisabledZeroAlloc pins the disabled hot path: the only cost of
// the check machinery when Config.Check is off is a nil comparison — no
// checker is built and the guard allocates nothing.
func TestCheckDisabledZeroAlloc(t *testing.T) {
	cfg := DefaultConfig()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sys.checker != nil {
		t.Fatal("checker built with Check disabled")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		// The sweep every poll runs; disabled, it is a nil guard.
		if err := sys.runChecks(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled check guard allocates %v per run, want 0", allocs)
	}
}

// TestShrinkTrace exercises the ddmin minimiser on a synthetic predicate:
// the failure needs instructions 13 and 77 together, so the minimum is
// exactly those two.
func TestShrinkTrace(t *testing.T) {
	full := make([]trace.Instr, 100)
	for i := range full {
		full[i] = trace.Instr{PC: uint64(i), Kind: trace.Load, Addr: uint64(i) << 12}
	}
	failing := func(instrs []trace.Instr) bool {
		var a, b bool
		for _, in := range instrs {
			a = a || in.PC == 13
			b = b || in.PC == 77
		}
		return a && b
	}
	got := ShrinkTrace(full, failing)
	if len(got) != 2 || got[0].PC != 13 || got[1].PC != 77 {
		t.Fatalf("shrink = %v, want instructions 13 and 77", got)
	}
}

// TestCheckedMulticore runs a checked 2-core mix end to end — the same path
// the -race resilience suite drives at GOMAXPROCS=4.
func TestCheckedMulticore(t *testing.T) {
	mc := DefaultMultiConfig()
	mc.Cores = 2
	mc.PerCore.WarmupInstrs = 2_000
	mc.PerCore.SimInstrs = 8_000
	mc.PerCore.Check.Enabled = true
	m, err := NewMulti(mc)
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range m.Systems {
		if sys.checker == nil {
			t.Fatal("per-core checker not built")
		}
	}
	w1, _ := trace.ByName("spec.stream_s00")
	w2, _ := trace.ByName("spec.pagehop_s00")
	runs, err := m.RunMix(context.Background(), []trace.Workload{w1, w2})
	if err != nil {
		t.Fatalf("checked mix failed: %v", err)
	}
	if len(runs) != 2 {
		t.Fatalf("got %d runs, want 2", len(runs))
	}
}

// TestCheckedMulticoreCatchesInjectedLeak proves the multi-core sweep path
// surfaces a per-core violation, labelled like a single-core run's: a
// *RunError at stage "check" wrapping the *CheckError.
func TestCheckedMulticoreCatchesInjectedLeak(t *testing.T) {
	mc := DefaultMultiConfig()
	mc.Cores = 2
	mc.PerCore.WarmupInstrs = 2_000
	mc.PerCore.SimInstrs = 8_000
	mc.PerCore.Check.Enabled = true
	mc.PerCore.FaultInject = faultinject.New(faultinject.Config{MSHRLeakEveryN: 20})
	m, err := NewMulti(mc)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := trace.ByName("spec.stream_s00")
	_, err = m.RunMix(context.Background(), []trace.Workload{w, w})
	if CheckFailure(err) == nil {
		t.Fatalf("checked mix returned %v, want a CheckError", err)
	}
	var re *RunError
	if !errors.As(err, &re) || re.Stage != "check" || re.Workload != w.Name {
		t.Fatalf("checked mix returned %v, want a RunError at stage check for %s", err, w.Name)
	}
}
