package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// tinyConfig returns a fast single-core configuration.
func tinyConfig(t testing.TB) sim.Config {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.WarmupInstrs = 2_000
	cfg.SimInstrs = 5_000
	cfg.Policy = sim.PolicyDripper
	return cfg
}

func workload(t testing.TB, name string) trace.Workload {
	t.Helper()
	w, ok := trace.ByName(name)
	if !ok {
		t.Fatalf("workload %s missing", name)
	}
	return w
}

// tinySpec builds n independent single-core cells over distinct workloads.
func tinySpec(t testing.TB, n int) Spec {
	t.Helper()
	names := []string{"spec.stream_s00", "spec.pagehop_s00", "gap.graph_s00", "spec.stream_s01"}
	if n > len(names) {
		t.Fatalf("tinySpec supports at most %d cells", len(names))
	}
	s := Spec{Name: "tiny"}
	for i := 0; i < n; i++ {
		w := workload(t, names[i])
		s.Cells = append(s.Cells, Cell{ID: w.Name, Config: tinyConfig(t), Workload: w})
	}
	return s
}

func TestSpecValidate(t *testing.T) {
	cfg := tinyConfig(t)
	w := workload(t, "spec.stream_s00")
	for _, tc := range []struct {
		name string
		spec Spec
		want string
	}{
		{"empty ID", Spec{Cells: []Cell{{Config: cfg, Workload: w}}}, "empty ID"},
		{"duplicate", Spec{Cells: []Cell{
			{ID: "a", Config: cfg, Workload: w}, {ID: "a", Config: cfg, Workload: w},
		}}, "duplicate"},
		{"mix shape", Spec{Cells: []Cell{
			{ID: "m", Multi: &sim.MultiConfig{PerCore: cfg, Cores: 2}, Mix: []trace.Workload{w}},
		}}, "2 cores"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
	ok := Spec{Cells: []Cell{
		{ID: "a", Config: cfg, Workload: w},
		{ID: "b", Config: cfg, Workload: w},
	}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

// TestKeyInvalidation pins the invalidation contract: the key moves exactly
// when a result-determining input moves.
func TestKeyInvalidation(t *testing.T) {
	cfg := tinyConfig(t)
	w := workload(t, "spec.stream_s00")
	base, err := KeyOf(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := KeyOf(cfg, w); again != base {
		t.Fatal("key not deterministic")
	}

	// Any sim.Config change moves the key.
	cfg2 := cfg
	cfg2.SimInstrs++
	if k, _ := KeyOf(cfg2, w); k == base {
		t.Fatal("SimInstrs change did not move the key")
	}
	cfg3 := cfg
	cfg3.Policy = sim.PolicyPermit
	if k, _ := KeyOf(cfg3, w); k == base {
		t.Fatal("policy change did not move the key")
	}

	// Any generator-parameter change moves the key.
	w2 := w
	w2.Config.Seed++
	if k, _ := KeyOf(cfg, w2); k == base {
		t.Fatal("generator seed change did not move the key")
	}

	// Selection metadata does NOT move the key: re-tagging a workload must
	// not invalidate its cached runs.
	w3 := w
	w3.Weight *= 2
	w3.Seen = !w3.Seen
	if k, _ := KeyOf(cfg, w3); k != base {
		t.Fatal("selection metadata moved the key")
	}

	// Fault injection is uncacheable.
	cfg4 := cfg
	cfg4.FaultInject = faultinject.New(faultinject.Config{})
	if _, err := KeyOf(cfg4, w); !errors.Is(err, ErrUncacheable) {
		t.Fatalf("fault-injected config: err = %v, want ErrUncacheable", err)
	}
}

func TestStoreCorruptionDetection(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	k, _ := KeyOf(tinyConfig(t), workload(t, "spec.stream_s00"))
	run := &stats.Run{Workload: "spec.stream_s00"}
	run.Core.Instructions = 5_000
	if err := s.Put(k, []*stats.Run{run}); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(k); !ok || got[0].Core.Instructions != 5_000 {
		t.Fatalf("round trip failed: ok=%v", ok)
	}

	path := filepath.Join(dir, string(k[:2]), string(k)+".json")

	// Payload tampering: flip one statistic inside the entry.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(b), `"Instructions":5000`, `"Instructions":9999`, 1)
	if tampered == string(b) {
		t.Fatal("tamper target not found in entry")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("checksum did not catch payload tampering")
	}

	// Truncation (torn write).
	if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("truncated entry served")
	}

	// Entry filed under the wrong key (renamed/copied file).
	k2, _ := KeyOf(tinyConfig(t), workload(t, "spec.pagehop_s00"))
	if err := os.MkdirAll(filepath.Join(dir, string(k2[:2])), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, string(k2[:2]), string(k2)+".json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k2); ok {
		t.Fatal("entry with mismatched embedded key served")
	}
}

// TestWarmCacheSkipsAllSimulation is the acceptance criterion: a warm-cache
// re-run of the same campaign performs zero simulations and returns
// byte-identical statistics.
func TestWarmCacheSkipsAllSimulation(t *testing.T) {
	spec := tinySpec(t, 3)
	dir := t.TempDir()

	cold, err := Run(context.Background(), spec, WithCache(dir), WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Complete() || cold.Simulated != 3 || cold.CacheHits != 0 {
		t.Fatalf("cold run: simulated=%d hits=%d failures=%v", cold.Simulated, cold.CacheHits, cold.Failures)
	}

	warm, err := Run(context.Background(), spec, WithCache(dir), WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	if warm.Simulated != 0 || warm.CacheHits != 3 {
		t.Fatalf("warm run simulated: simulated=%d hits=%d", warm.Simulated, warm.CacheHits)
	}

	// Byte-identical statistics, cell by cell.
	for id, cr := range cold.Runs {
		cb, err := json.Marshal(cr)
		if err != nil {
			t.Fatal(err)
		}
		wb, err := json.Marshal(warm.Runs[id])
		if err != nil {
			t.Fatal(err)
		}
		if string(cb) != string(wb) {
			t.Fatalf("cell %s: cached stats differ from simulated\ncold: %s\nwarm: %s", id, cb, wb)
		}
	}
}

// TestCacheInvalidatesExactlyAffectedCells: changing one cell's config
// re-simulates that cell only.
func TestCacheInvalidatesExactlyAffectedCells(t *testing.T) {
	spec := tinySpec(t, 3)
	dir := t.TempDir()
	if _, err := Run(context.Background(), spec, WithCache(dir)); err != nil {
		t.Fatal(err)
	}

	spec.Cells[1].Config.SimInstrs += 1_000
	rep, err := Run(context.Background(), spec, WithCache(dir))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Simulated != 1 || rep.CacheHits != 2 {
		t.Fatalf("after one-cell config change: simulated=%d hits=%d", rep.Simulated, rep.CacheHits)
	}

	// A schema bump would invalidate everything: emulate by rewriting one
	// entry's schema field and confirming it misses.
	s, _ := OpenStore(dir)
	k, _ := spec.Cells[0].key()
	runs, ok := s.Get(k)
	if !ok {
		t.Fatal("entry missing")
	}
	path := filepath.Join(dir, string(k[:2]), string(k)+".json")
	b, _ := os.ReadFile(path)
	stale := strings.Replace(string(b), fmt.Sprintf(`"schema":%d`, SchemaVersion), fmt.Sprintf(`"schema":%d`, SchemaVersion-1), 1)
	if stale == string(b) {
		t.Fatal("schema field not found")
	}
	if err := os.WriteFile(path, []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("stale-schema entry served")
	}
	_ = runs
}

// TestCorruptEntryFallsBackToSimulation: a corrupted cache entry is a miss,
// the cell re-simulates, and the entry heals.
func TestCorruptEntryFallsBackToSimulation(t *testing.T) {
	spec := tinySpec(t, 2)
	dir := t.TempDir()
	cold, err := Run(context.Background(), spec, WithCache(dir))
	if err != nil {
		t.Fatal(err)
	}

	k, _ := spec.Cells[0].key()
	path := filepath.Join(dir, string(k[:2]), string(k)+".json")
	if err := os.WriteFile(path, []byte("{garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := Run(context.Background(), spec, WithCache(dir))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Simulated != 1 || rep.CacheHits != 1 {
		t.Fatalf("after corruption: simulated=%d hits=%d", rep.Simulated, rep.CacheHits)
	}
	cb, _ := json.Marshal(cold.Runs[spec.Cells[0].ID])
	rb, _ := json.Marshal(rep.Runs[spec.Cells[0].ID])
	if string(cb) != string(rb) {
		t.Fatal("re-simulated result differs from original")
	}
	// Healed: a third run is all hits.
	again, err := Run(context.Background(), spec, WithCache(dir))
	if err != nil {
		t.Fatal(err)
	}
	if again.Simulated != 0 {
		t.Fatalf("entry not healed: simulated=%d", again.Simulated)
	}
}

// TestResumeFromCache models the interrupted-campaign workflow: a
// partial campaign checkpoints what it finished in the cache; re-invoking
// the full campaign over the same cache serves the checkpointed cells
// without simulation and runs only the remainder. (Config drift is
// covered by TestCacheInvalidatesExactlyAffectedCells.)
func TestResumeFromCache(t *testing.T) {
	full := tinySpec(t, 4)
	dir := t.TempDir()

	// "Interrupted" first invocation: only the first two cells ran.
	partial := Spec{Name: full.Name, Cells: full.Cells[:2]}
	if _, err := Run(context.Background(), partial, WithCache(dir)); err != nil {
		t.Fatal(err)
	}

	rep, err := Run(context.Background(), full, WithCache(dir))
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheHits != 2 || rep.Simulated != 2 || !rep.Complete() {
		t.Fatalf("resume: hits=%d simulated=%d failures=%v", rep.CacheHits, rep.Simulated, rep.Failures)
	}
}

// TestSharedCacheAcrossCampaigns: one experiment invocation may run
// several campaigns (cmd/experiments fig9 runs one matrix per prefetcher)
// that reuse the same scenario/workload cell IDs against a single shared
// cache. Lookup is by content key, so the reused IDs must not shadow each
// other: re-running both campaigns hits everything.
func TestSharedCacheAcrossCampaigns(t *testing.T) {
	dir := t.TempDir()

	specs := make([]Spec, 2)
	for i, pf := range []string{"berti", "bop"} {
		spec := tinySpec(t, 2)
		for j := range spec.Cells {
			spec.Cells[j].Config.L1DPrefetcher = pf
		}
		specs[i] = spec // same cell IDs in both specs, different configs
	}
	for _, spec := range specs {
		rep, err := Run(context.Background(), spec, WithCache(dir))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Simulated != 2 || rep.CacheHits != 0 {
			t.Fatalf("cold: simulated=%d hits=%d", rep.Simulated, rep.CacheHits)
		}
	}
	for _, spec := range specs {
		rep, err := Run(context.Background(), spec, WithCache(dir))
		if err != nil {
			t.Fatal(err)
		}
		if rep.CacheHits != 2 || rep.Simulated != 0 {
			t.Fatalf("shared-cache re-run: hits=%d simulated=%d", rep.CacheHits, rep.Simulated)
		}
	}
}

// TestCancelledCampaignCheckpointsAndResumes is the SIGINT path: a
// campaign cancelled mid-run returns ctx.Err() with no spurious ledger
// entries, keeps whatever it checkpointed in the cache, and a re-run over
// the same cache completes from there.
func TestCancelledCampaignCheckpointsAndResumes(t *testing.T) {
	spec := tinySpec(t, 3)
	dir := t.TempDir()

	// One worker, cancelled as the first cell completes: that cell is
	// checkpointed, the other two never start.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rep, err := Run(ctx, spec, WithCache(dir), WithWorkers(1), WithEvents(func(ev Event) {
		if ev.Kind == EventCellCompleted {
			cancel()
		}
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(rep.Failures) != 0 || rep.Simulated != 1 {
		t.Fatalf("cancelled run: simulated=%d failures=%v", rep.Simulated, rep.Failures)
	}

	rep2, err := Run(context.Background(), spec, WithCache(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Complete() || rep2.CacheHits != 1 || rep2.Simulated != 2 {
		t.Fatalf("post-cancel resume: hits=%d simulated=%d failures=%v", rep2.CacheHits, rep2.Simulated, rep2.Failures)
	}
}

// TestFailedCellIsLedgeredDependentsStillRun: a cell that cannot even be
// constructed fails into the ledger; the cells after it still complete.
func TestFailedCellIsLedgeredDependentsStillRun(t *testing.T) {
	spec := tinySpec(t, 3)
	spec.Cells[0].Config.L1DPrefetcher = "no-such-prefetcher"

	rep, err := Run(context.Background(), spec, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) != 1 || rep.Failures[0].ID != spec.Cells[0].ID {
		t.Fatalf("failures = %+v", rep.Failures)
	}
	if rep.Err() == nil {
		t.Fatal("aggregated error missing")
	}
	for _, id := range []string{spec.Cells[1].ID, spec.Cells[2].ID} {
		if rep.Runs[id] == nil {
			t.Fatalf("cell %s missing despite being independent of the failure", id)
		}
	}
}

// TestCellsStartInSpecOrder pins the shared cursor: one worker starts every
// cell in spec order, a failed cell included, and a ctx cancelled before
// Run starts no cell however many workers wait on the cursor.
func TestCellsStartInSpecOrder(t *testing.T) {
	spec := tinySpec(t, 4)
	doomed := spec.Cells[1].ID
	var started []string
	rep, err := Run(context.Background(), spec, WithWorkers(1),
		WithCellFault(func(_ context.Context, id string, _ int) error {
			if id == doomed {
				return errors.New("injected, permanent")
			}
			return nil
		}),
		WithEvents(func(ev Event) {
			if ev.Kind == EventCellStarted {
				started = append(started, ev.Cell)
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) != 1 || rep.Failures[0].ID != doomed || len(rep.Runs) != 3 {
		t.Fatalf("runs=%d failures=%+v, want 3 runs and %s ledgered", len(rep.Runs), rep.Failures, doomed)
	}
	if len(started) != len(spec.Cells) {
		t.Fatalf("started %v, want all %d cells", started, len(spec.Cells))
	}
	for i, c := range spec.Cells {
		if started[i] != c.ID {
			t.Fatalf("start order %v, want spec order", started)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var events []Event
	rep, err = Run(ctx, tinySpec(t, 3), WithWorkers(4),
		WithEvents(func(ev Event) { events = append(events, ev) }))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(events) != 0 || len(rep.Failures) != 0 || len(rep.Runs) != 0 {
		t.Fatalf("cancelled run: events=%v failures=%v runs=%d", events, rep.Failures, len(rep.Runs))
	}
}

// TestRetryableFailuresRetryWithSharedEngineContract mirrors the matrix
// runner's retry semantics on the campaign engine directly.
func TestRetryableFailuresRetry(t *testing.T) {
	inj := faultinject.New(faultinject.Config{FailAttempts: 2})
	spec := tinySpec(t, 1)
	spec.Cells[0].Config.FaultInject = inj

	rep, err := Run(context.Background(), spec,
		WithRetries(3, time.Millisecond), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() {
		t.Fatalf("transient failure not absorbed: %v", rep.Failures)
	}
	if inj.Attempts() != 3 {
		t.Fatalf("attempts = %d, want 3", inj.Attempts())
	}
	// Fault-injected cells are uncacheable: nothing may have been stored.
	if rep.Simulated != 1 || rep.CacheHits != 0 {
		t.Fatalf("uncacheable accounting: %+v", rep)
	}
}

// TestMixCellsCacheAndResume: multi-core mix cells go through the same
// cache (and so checkpoint) machinery as single-core cells.
func TestMixCellsCacheAndResume(t *testing.T) {
	per := tinyConfig(t)
	per.WarmupInstrs = 1_000
	per.SimInstrs = 2_000
	per.Core.ReplayOnEnd = true
	mc := sim.DefaultMultiConfig()
	mc.Cores = 2
	mc.PerCore = per
	mix := trace.Mixes(1, 2)[0]

	spec := Spec{Name: "mix", Cells: []Cell{{ID: "mix0", Multi: &mc, Mix: mix}}}
	dir := t.TempDir()

	cold, err := Run(context.Background(), spec, WithCache(dir))
	if err != nil {
		t.Fatal(err)
	}
	if cold.Simulated != 1 || len(cold.MixRuns["mix0"]) != 2 {
		t.Fatalf("mix cold run: %+v", cold)
	}
	warm, err := Run(context.Background(), spec, WithCache(dir))
	if err != nil {
		t.Fatal(err)
	}
	if warm.Simulated != 0 || warm.CacheHits != 1 {
		t.Fatalf("mix warm run: simulated=%d hits=%d", warm.Simulated, warm.CacheHits)
	}
	cb, _ := json.Marshal(cold.MixRuns["mix0"])
	wb, _ := json.Marshal(warm.MixRuns["mix0"])
	if string(cb) != string(wb) {
		t.Fatal("cached mix stats differ from simulated")
	}
}
