package sim

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/sample"
	"repro/internal/stats"
	"repro/internal/trace"
)

// accuracyFamilies is one workload per generator family — the same sweep the
// paper's evaluation matrices use — so the sampled-error gate covers every
// distinct memory behaviour the simulator models, not just the friendly ones.
var accuracyFamilies = []string{
	"spec.stream_s00", "spec.pagehop_s00", "gap.graph_s00", "spec.chase_u00",
	"parsec.parsec_u00", "gkb5.phased_u00", "qmm_int.qmm_u00", "spec.hot_00",
}

// accuracyBudget is the per-family instruction budget of the error table.
// At 1M instructions the auto period floors at DefaultMinPeriodInstrs, so
// the table exercises the dense end of the schedule; the error shrinks
// further at larger budgets because the interval count is held constant
// (see DESIGN.md §11).
const accuracyBudget = 1_000_000

// Per-counter error budgets for one sampled run against its full-detail
// reference. The binding, paper-level gate is the geomean IPC error across
// families (<1%); the per-family and per-counter budgets below are
// generous backstops that catch a family- or counter-specific regression
// (e.g. warm state no longer covering the page-walk path) that geomean
// averaging could hide.
const (
	maxGeomeanIPCErrPct = 1.0
	maxFamilyIPCErrPct  = 20.0
	maxTLBMPKIErr       = 2.0
	maxPGCPKIErr        = 25.0
)

type accuracyRow struct {
	name             string
	fullIPC, sampIPC float64
	ipcErrPct        float64
	fullPGC, sampPGC float64 // page-cross prefetches issued per kilo-instruction
	dtlbErr, stlbErr float64 // abs MPKI error
}

// pgcPKI is the page-cross prefetch issue rate the paper's analysis is
// built on, per kilo-instruction.
func pgcPKI(r *stats.Run) float64 {
	return float64(r.L1D.PGCIssued) * 1000 / float64(r.Core.Instructions)
}

func sampledAccuracyTable(t *testing.T) []accuracyRow {
	t.Helper()
	rows := make([]accuracyRow, 0, len(accuracyFamilies))
	for _, name := range accuracyFamilies {
		w, ok := trace.ByName(name)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		cfg := DefaultConfig()
		cfg.Policy = PolicyDripper
		cfg.WarmupInstrs = 50_000
		cfg.SimInstrs = accuracyBudget
		full, err := RunWorkload(context.Background(), cfg, w)
		if err != nil {
			t.Fatalf("%s full: %v", name, err)
		}
		cfg.Sample = SampleConfig{Enabled: true}
		samp, err := RunWorkload(context.Background(), cfg, w)
		if err != nil {
			t.Fatalf("%s sampled: %v", name, err)
		}
		rows = append(rows, accuracyRow{
			name:      name,
			fullIPC:   full.IPC(),
			sampIPC:   samp.IPC(),
			ipcErrPct: 100 * math.Abs(samp.IPC()-full.IPC()) / full.IPC(),
			fullPGC:   pgcPKI(full),
			sampPGC:   pgcPKI(samp),
			dtlbErr:   math.Abs(samp.MPKI("dtlb") - full.MPKI("dtlb")),
			stlbErr:   math.Abs(samp.MPKI("stlb") - full.MPKI("stlb")),
		})
	}
	return rows
}

func formatAccuracyTable(rows []accuracyRow, geomeanErr float64) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "# Sampled-vs-full error table: one workload per family, %d instrs,\n", accuracyBudget)
	fmt.Fprintf(&b, "# DRIPPER policy, default auto-period sampling.\n")
	fmt.Fprintf(&b, "# Regenerate: go test ./internal/sim -run TestGoldenSampledAccuracy -update\n")
	fmt.Fprintf(&b, "%-20s %9s %9s %9s %13s %13s %10s %10s\n",
		"family", "full_ipc", "samp_ipc", "ipc_err%", "full_pgc_pki", "samp_pgc_pki", "dtlb_err", "stlb_err")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s %9.4f %9.4f %9.3f %13.3f %13.3f %10.3f %10.3f\n",
			r.name, r.fullIPC, r.sampIPC, r.ipcErrPct, r.fullPGC, r.sampPGC, r.dtlbErr, r.stlbErr)
	}
	fmt.Fprintf(&b, "geomean_ipc_err%% %.3f\n", geomeanErr)
	return b.Bytes()
}

// TestGoldenSampledAccuracy runs every workload family at the same budget in
// full detail and under default interval sampling, and enforces the
// tentpole accuracy contract: geomean IPC error below 1%, with per-family
// and per-counter backstops. The resulting error table is also pinned as a
// golden file so any drift — better or worse — is visible in review;
// deliberate changes are accepted with -update.
func TestGoldenSampledAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-instruction accuracy sweep")
	}
	rows := sampledAccuracyTable(t)

	geo := 1.0
	for _, r := range rows {
		geo *= r.sampIPC / r.fullIPC
	}
	geo = math.Pow(geo, 1/float64(len(rows)))
	geomeanErr := 100 * math.Abs(geo-1)

	for _, r := range rows {
		if r.ipcErrPct > maxFamilyIPCErrPct {
			t.Errorf("%s: IPC error %.3f%% exceeds per-family budget %.1f%%", r.name, r.ipcErrPct, maxFamilyIPCErrPct)
		}
		if r.dtlbErr > maxTLBMPKIErr || r.stlbErr > maxTLBMPKIErr {
			t.Errorf("%s: TLB MPKI error (dtlb %.3f, stlb %.3f) exceeds budget %.1f", r.name, r.dtlbErr, r.stlbErr, maxTLBMPKIErr)
		}
		if d := math.Abs(r.sampPGC - r.fullPGC); d > maxPGCPKIErr {
			t.Errorf("%s: page-cross PKI error %.3f exceeds budget %.1f", r.name, d, maxPGCPKIErr)
		}
	}
	if geomeanErr > maxGeomeanIPCErrPct {
		t.Errorf("geomean IPC error %.3f%% exceeds the %.1f%% gate", geomeanErr, maxGeomeanIPCErrPct)
	}

	got := formatAccuracyTable(rows, geomeanErr)
	path := filepath.Join("testdata", "golden", "sampled_accuracy.txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden error table (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("sampled error table drifted; accept deliberate changes with -update\n--- want\n%s--- got\n%s", want, got)
	}
}

// TestSampledDeterminism runs the same sampled configuration several times
// concurrently at GOMAXPROCS 1, 2 and 4 (CI also runs it under -race) and
// requires byte-identical metric snapshots: interval placement is a pure
// function of (workload, seed), and the warm pipeline's install stage
// applies one ordered op stream, so neither scheduling, parallelism nor the
// number of Ps may move a single counter.
func TestSampledDeterminism(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, name := range []string{"spec.pagehop_s00", "qmm_int.qmm_u00"} {
		t.Run(name, func(t *testing.T) {
			w, ok := trace.ByName(name)
			if !ok {
				t.Fatalf("workload %s missing", name)
			}
			cfg := DefaultConfig()
			cfg.Policy = PolicyDripper
			cfg.WarmupInstrs = 10_000
			cfg.SimInstrs = 200_000
			cfg.Sample = SampleConfig{Enabled: true}

			const runs = 4
			var want []byte
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				snaps := make([][]byte, runs)
				var wg sync.WaitGroup
				for i := 0; i < runs; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						reader, err := w.NewReader()
						if err != nil {
							t.Error(err)
							return
						}
						_, sys, err := RunTraceSystem(context.Background(), cfg, w.Name, w.Suite, reader)
						if err != nil {
							t.Error(err)
							return
						}
						var buf bytes.Buffer
						if err := sys.Snapshot().WriteJSON(&buf); err != nil {
							t.Error(err)
							return
						}
						snaps[i] = buf.Bytes()
					}(i)
				}
				wg.Wait()
				if want == nil {
					want = snaps[0]
				}
				for i := range snaps {
					if !bytes.Equal(want, snaps[i]) {
						t.Fatalf("GOMAXPROCS=%d: concurrent sampled run %d produced a different snapshot", procs, i)
					}
				}
			}
		})
	}
}

// TestSampledSeedMovesIntervals is the negative control for the determinism
// suite: an explicit different sampling seed must place different intervals
// and therefore move the measured statistics.
func TestSampledSeedMovesIntervals(t *testing.T) {
	w, ok := trace.ByName("gap.graph_s00")
	if !ok {
		t.Fatal("workload missing")
	}
	cfg := DefaultConfig()
	cfg.Policy = PolicyDripper
	cfg.SimInstrs = 200_000
	cfg.Sample = SampleConfig{Enabled: true, Seed: 1}
	a, err := RunWorkload(context.Background(), cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sample.Seed = 2
	b, err := RunWorkload(context.Background(), cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if a.Core.Cycles == b.Core.Cycles && a.L1D.DemandMisses == b.L1D.DemandMisses {
		t.Fatal("different sampling seeds left every statistic unchanged; seed is not reaching interval placement")
	}
}

// TestSampledMetricsAccounting pins the sampling meters: measured+warm
// instructions partition the budget (up to the dropped trailing slack) and
// the segment count matches the plan.
func TestSampledMetricsAccounting(t *testing.T) {
	w, ok := trace.ByName("spec.stream_s00")
	if !ok {
		t.Fatal("workload missing")
	}
	cfg := DefaultConfig()
	cfg.Policy = PolicyDripper
	cfg.SimInstrs = 200_000
	cfg.Sample = SampleConfig{Enabled: true}
	reader, err := w.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	run, sys, err := RunTraceSystem(context.Background(), cfg, w.Name, w.Suite, reader)
	if err != nil {
		t.Fatal(err)
	}
	sc := cfg.Sample
	sc.Seed = sample.SeedFromName(w.Name)
	segs := sc.Plan(cfg.SimInstrs)
	var wantWarm, wantMeasured uint64
	for _, s := range segs {
		wantWarm += s.Warm
		wantMeasured += s.Measure
	}
	snap := sys.Snapshot()
	find := func(name string) uint64 {
		v, ok := snap.Value(name)
		if !ok {
			t.Fatalf("counter %s missing from snapshot", name)
		}
		return v
	}
	if got := find("sample.segments"); got != uint64(len(segs)) {
		t.Fatalf("sample.segments = %d, want %d", got, len(segs))
	}
	if got := find("sample.warm_instrs"); got != wantWarm {
		t.Fatalf("sample.warm_instrs = %d, want %d", got, wantWarm)
	}
	if got := find("sample.measured_instrs"); got != wantMeasured {
		t.Fatalf("sample.measured_instrs = %d, want %d", got, wantMeasured)
	}
	if run.Core.Instructions != wantMeasured {
		t.Fatalf("measured run retired %d instructions, plan measures %d", run.Core.Instructions, wantMeasured)
	}
}

// TestCheckIdleSkipEndToEnd is the system-level companion of the cpu
// package's lockstep suite: a full simulation with the event-driven
// idle-skip enabled must produce a byte-identical metrics snapshot to the
// cycle-by-cycle reference core, across page-cross policies and with
// sampling layered on top. It runs under `make diff` with the rest of the
// differential harness.
func TestCheckIdleSkipEndToEnd(t *testing.T) {
	cases := []struct {
		name    string
		policy  PolicyKind
		family  string
		sampled bool
	}{
		{"dripper-stream", PolicyDripper, "spec.stream_s00", false},
		{"permit-pagehop", PolicyPermit, "spec.pagehop_s00", false},
		{"discard-chase", PolicyDiscard, "spec.chase_u00", false},
		{"dripper-graph-sampled", PolicyDripper, "gap.graph_s00", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, ok := trace.ByName(tc.family)
			if !ok {
				t.Fatalf("workload %s missing", tc.family)
			}
			snap := func(disableSkip bool) []byte {
				cfg := DefaultConfig()
				cfg.Policy = tc.policy
				cfg.WarmupInstrs = 5_000
				cfg.SimInstrs = 60_000
				cfg.Core.DisableIdleSkip = disableSkip
				if tc.sampled {
					cfg.Sample = SampleConfig{Enabled: true}
				}
				reader, err := w.NewReader()
				if err != nil {
					t.Fatal(err)
				}
				_, sys, err := RunTraceSystem(context.Background(), cfg, w.Name, w.Suite, reader)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := sys.Snapshot().WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			fast, ref := snap(false), snap(true)
			if !bytes.Equal(fast, ref) {
				t.Fatal("idle-skip run diverged from the cycle-by-cycle reference snapshot")
			}
		})
	}
}
