package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/faultinject"
	"repro/internal/sim"
	"repro/internal/trace"
)

// poisonOpts keeps degraded-matrix tests fast under -race.
func poisonOpts() Options {
	return Options{Warmup: 5_000, Instrs: 10_000}
}

// poisonedWorkload clones a real workload under a sentinel name; the
// Configure hook arms the fault injector for it only.
func poisonedWorkload(t *testing.T) trace.Workload {
	t.Helper()
	w, ok := trace.ByName("spec.stream_s00")
	if !ok {
		t.Fatal("workload spec.stream_s00 missing")
	}
	w.Name = "spec.poisoned"
	return w
}

// sevenScenarios is the full §V-A scenario column set.
func sevenScenarios() []Scenario {
	return []Scenario{
		scenarioPermit(), scenarioDiscard(), scenarioDiscardPTW(),
		scenarioISO(), scenarioPPF(), scenarioPPFDthr(), scenarioDripper(),
	}
}

// TestDegradedMatrixSurvivesPoisonedWorkload is the acceptance scenario: a
// 7-scenario matrix with one workload whose trace decoder panics must still
// return every other (scenario, workload) pair, with the poisoned pairs in
// the campaign's failure ledger.
func TestDegradedMatrixSurvivesPoisonedWorkload(t *testing.T) {
	good := tinySet(t)[:2]
	poisoned := poisonedWorkload(t)
	wls := append(append([]trace.Workload{}, good...), poisoned)
	scens := sevenScenarios()

	o := poisonOpts()
	o.Configure = func(cfg *sim.Config, scenario string, wl trace.Workload) {
		if wl.Name == poisoned.Name {
			cfg.FaultInject = faultinject.New(faultinject.Config{PanicAtRecord: 1_000})
		}
	}

	m, rep, err := runMatrix(o, wls, scens)
	if err != nil {
		t.Fatalf("campaign-level error: %v", err)
	}
	if rep.Complete() {
		t.Fatal("report claims completeness despite a poisoned workload")
	}
	if rep.Total != len(scens)*len(wls) {
		t.Fatalf("total = %d", rep.Total)
	}

	// Every non-poisoned pair completed.
	for _, sc := range scens {
		runs := m[sc.Name]
		if runs == nil {
			t.Fatalf("scenario %s missing entirely", sc.Name)
		}
		for _, w := range good {
			if runs[w.Name] == nil {
				t.Fatalf("run %s/%s missing", sc.Name, w.Name)
			}
		}
		if runs[poisoned.Name] != nil {
			t.Fatalf("poisoned run %s/%s present", sc.Name, poisoned.Name)
		}
	}

	// The ledger lists exactly the poisoned pairs, once per scenario, as
	// recovered panics.
	want := map[string]bool{}
	for _, sc := range scens {
		want[cellID(sc.Name, poisoned.Name)] = true
	}
	if len(rep.Failures) != len(want) {
		t.Fatalf("ledger has %d entries, want %d: %+v", len(rep.Failures), len(want), rep.Failures)
	}
	for _, f := range rep.Failures {
		if !want[f.ID] {
			t.Fatalf("unexpected failure %s: %v", f.ID, f.Err)
		}
		delete(want, f.ID)
		var re *sim.RunError
		if !errors.As(f.Err, &re) || !re.Panicked {
			t.Fatalf("failure %s is not a recovered panic: %v", f.ID, f.Err)
		}
	}
	if rep.Err() == nil {
		t.Fatal("aggregated error missing")
	}

	// The strict reduction names the missing pair; over the survivors it
	// computes.
	if _, _, err := m.Speedups("Permit PGC", "Discard PGC", wls); err == nil {
		t.Fatal("strict Speedups accepted a degraded matrix")
	} else if !strings.Contains(err.Error(), poisoned.Name) {
		t.Fatalf("strict Speedups error does not name the missing pair: %v", err)
	}
	if sp, weights, err := m.Speedups("Permit PGC", "Discard PGC", good); err != nil || len(sp) != len(good) || len(weights) != len(good) {
		t.Fatalf("speedups over the survivors = %v, %v, %v", sp, weights, err)
	}
}

// TestRunMatrixReturnsPartialOnError: RunMatrix returns the completed
// portion alongside the folded ledger error, which names a failed cell.
func TestRunMatrixReturnsPartialOnError(t *testing.T) {
	good := tinySet(t)[:1]
	poisoned := poisonedWorkload(t)
	wls := append(append([]trace.Workload{}, good...), poisoned)

	o := poisonOpts()
	o.Configure = func(cfg *sim.Config, scenario string, wl trace.Workload) {
		if wl.Name == poisoned.Name {
			cfg.FaultInject = faultinject.New(faultinject.Config{PanicAtRecord: 1_000})
		}
	}
	m, err := RunMatrix(o, wls, []Scenario{scenarioDiscard(), scenarioPermit()})
	if err == nil {
		t.Fatal("poisoned matrix returned no error")
	}
	var re *sim.RunError
	if !errors.As(err, &re) || !strings.Contains(err.Error(), poisoned.Name) {
		t.Fatalf("folded error does not carry the failed cell: %v", err)
	}
	if m == nil {
		t.Fatal("completed portion dropped")
	}
	for _, sc := range []string{"Discard PGC", "Permit PGC"} {
		if m[sc][good[0].Name] == nil {
			t.Fatalf("completed run %s/%s dropped", sc, good[0].Name)
		}
	}
}

func TestRunMatrixCancellationIsPrompt(t *testing.T) {
	wls := tinySet(t)
	ctx, cancel := context.WithCancel(context.Background())
	o := Options{Warmup: 0, Instrs: 2_000_000_000, Ctx: ctx, Campaign: []campaign.Option{campaign.WithWorkers(2)}}

	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, rep, err := runMatrix(o, wls, sevenScenarios())
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil {
		t.Fatal("report missing on cancellation")
	}
	// Teardown is bounded by the watchdog poll grain (microseconds of
	// simulated work per check), not the multi-minute instruction budget;
	// 5s is hundreds of poll intervals of slack for a loaded CI machine.
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	// Cancelled runs are not individual failures.
	for _, f := range rep.Failures {
		t.Fatalf("cancellation produced ledger entry %s: %v", f.ID, f.Err)
	}
}

func TestRunMatrixRetriesTransientFailures(t *testing.T) {
	wls := tinySet(t)[:1]
	inj := faultinject.New(faultinject.Config{FailAttempts: 2})
	o := poisonOpts()
	o.Campaign = append(o.Campaign, campaign.WithRetries(3, time.Millisecond))
	o.Configure = func(cfg *sim.Config, scenario string, wl trace.Workload) {
		cfg.FaultInject = inj
	}
	m, rep, err := runMatrix(o, wls, []Scenario{scenarioDiscard()})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() {
		t.Fatalf("transient failures not absorbed: %+v", rep.Failures)
	}
	if m["Discard PGC"][wls[0].Name] == nil {
		t.Fatal("run missing after retries")
	}
	if inj.Attempts() != 3 {
		t.Fatalf("attempts = %d, want 3 (2 failures + 1 success)", inj.Attempts())
	}
}

func TestRunMatrixDoesNotRetryDeterministicStalls(t *testing.T) {
	wls := tinySet(t)[:1]
	inj := faultinject.New(faultinject.Config{StallRetireAfter: 2_000})
	o := poisonOpts()
	o.Campaign = append(o.Campaign, campaign.WithRetries(5, time.Millisecond))
	o.Configure = func(cfg *sim.Config, scenario string, wl trace.Workload) {
		cfg.FaultInject = inj
		cfg.Watchdog = sim.WatchdogConfig{NoRetireBound: 20_000, PollEvery: 1_000}
	}
	_, rep, err := runMatrix(o, wls, []Scenario{scenarioDiscard()})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) != 1 {
		t.Fatalf("failures = %+v", rep.Failures)
	}
	f := rep.Failures[0]
	if f.Attempts != 1 {
		t.Fatalf("deterministic stall retried %d times", f.Attempts)
	}
	var stall *sim.StallError
	if !errors.As(f.Err, &stall) {
		t.Fatalf("ledger error %v is not a StallError", f.Err)
	}
}

// TestMatrixLedgersCheckViolations pins the checker/ledger integration: an
// injected MSHR leak on one workload of a checked matrix must land in the
// campaign's failure ledger as a RunError with stage "check" wrapping a
// *sim.CheckError — never as a generic recovered panic — both when
// FailFast returns the first violating poll's error early and when the
// violations accumulate until the run ends. sim.CheckFailure must pick out
// exactly those entries.
func TestMatrixLedgersCheckViolations(t *testing.T) {
	for _, failFast := range []bool{false, true} {
		name := "accumulate"
		if failFast {
			name = "failfast"
		}
		t.Run(name, func(t *testing.T) {
			good := tinySet(t)[:1]
			leaky := poisonedWorkload(t)
			wls := append(append([]trace.Workload{}, good...), leaky)

			o := poisonOpts()
			o.Check = sim.CheckConfig{Enabled: true, FailFast: failFast}
			o.Configure = func(cfg *sim.Config, scenario string, wl trace.Workload) {
				if wl.Name == leaky.Name {
					cfg.FaultInject = faultinject.New(faultinject.Config{MSHRLeakEveryN: 20})
				}
			}

			m, rep, err := runMatrix(o, wls, []Scenario{scenarioDiscard(), scenarioDripper()})
			if err != nil {
				t.Fatalf("campaign-level error: %v", err)
			}
			// Healthy pairs completed under full checking.
			for _, sc := range []string{"Discard PGC", "DRIPPER"} {
				if m[sc][good[0].Name] == nil {
					t.Fatalf("checked run %s/%s missing", sc, good[0].Name)
				}
			}
			if len(rep.Failures) != 2 {
				t.Fatalf("ledger has %d entries, want 2: %+v", len(rep.Failures), rep.Failures)
			}
			for _, f := range rep.Failures {
				if _, wl := splitCellID(f.ID); wl != leaky.Name {
					t.Fatalf("unexpected check failure %s: %v", f.ID, f.Err)
				}
				var re *sim.RunError
				if !errors.As(f.Err, &re) || re.Stage != "check" || re.Panicked {
					t.Fatalf("failure %s not ledgered as a non-panic check stage: %+v", f.ID, re)
				}
				ce := sim.CheckFailure(f.Err)
				if ce == nil || ce.First().Invariant != "mshr-leak" {
					t.Fatalf("failure %s lost the violation detail: %v", f.ID, f.Err)
				}
				if sim.Retryable(f.Err) {
					t.Fatal("an invariant violation must not be retried")
				}
			}
		})
	}
}
