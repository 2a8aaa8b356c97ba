package sim

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/trace"
)

// update rewrites the golden metric snapshots instead of comparing:
//
//	go test ./internal/sim -run TestGoldenSnapshots -update
var update = flag.Bool("update", false, "rewrite golden metric snapshots under testdata/golden")

// goldenWorkloads are small fixed-seed workloads with distinct memory
// behaviour: a page-friendly stream, a page-hopping pattern that exercises
// the page-cross path, and an irregular graph traversal from the seen
// split, plus one unseen-split workload per generator family (the §V-B8
// generalisation set) so fingerprint drift on the unseen salt is caught
// too.
var goldenWorkloads = []string{
	"spec.stream_s00",
	"spec.pagehop_s00",
	"gap.graph_s00",
	// Unseen split, one per family (spec.hot_00 is the non-intensive "hot"
	// family, which only exists outside the seen split).
	"spec.stream_u00",
	"spec.pagehop_u00",
	"spec.chase_u00",
	"gap.graph_u00",
	"parsec.parsec_u00",
	"gkb5.phased_u00",
	"qmm_int.qmm_u00",
	"spec.hot_00",
}

// goldenConfig is deliberately tiny: the goal is a stable fingerprint of the
// whole pipeline (prefetcher, DRIPPER filter, TLBs, walker, DRAM), not a
// performance measurement.
func goldenConfig() Config {
	cfg := DefaultConfig()
	cfg.WarmupInstrs = 10_000
	cfg.SimInstrs = 20_000
	cfg.Policy = PolicyDripper
	return cfg
}

// sampledGoldenConfig fingerprints the sampled execution mode: a budget a
// few periods long, so the snapshot pins the interval plan (segment count,
// warm/measured split) alongside every simulator counter. Any change to
// interval placement, warm semantics or ramp exclusion moves these files.
func sampledGoldenConfig() Config {
	cfg := goldenConfig()
	cfg.SimInstrs = 100_000
	cfg.Sample = SampleConfig{Enabled: true}
	return cfg
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".json")
}

func sampledGoldenPath(name string) string {
	return filepath.Join("testdata", "golden", "sampled", name+".json")
}

func runGolden(t *testing.T, cfg Config, name string) []byte {
	t.Helper()
	w, ok := trace.ByName(name)
	if !ok {
		t.Fatalf("workload %s missing", name)
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

// compareGolden diffs got against the committed fingerprint at path,
// rewriting it under -update.
func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	wantSnap, werr := metrics.ParseSnapshot(want)
	gotSnap, gerr := metrics.ParseSnapshot(got)
	if werr != nil || gerr != nil {
		t.Fatalf("snapshot drifted and could not diff (golden: %v, current: %v)", werr, gerr)
	}
	for _, d := range metrics.Diff(wantSnap, gotSnap) {
		t.Errorf("%s", d)
	}
	t.Fatalf("metrics snapshot drifted from %s; review the per-counter diff above and accept deliberate changes with -update", path)
}

// TestGoldenSnapshots compares the full metrics snapshot of each golden
// workload against its committed fingerprint. Any behavioural change in the
// simulator shows up as a readable per-counter diff; deliberate changes are
// accepted with -update.
func TestGoldenSnapshots(t *testing.T) {
	for _, name := range goldenWorkloads {
		t.Run(name, func(t *testing.T) {
			compareGolden(t, goldenPath(name), runGolden(t, goldenConfig(), name))
		})
	}
}

// TestGoldenSnapshotsSampled is the sampled-mode twin of TestGoldenSnapshots:
// the same workloads run under the default interval-sampling schedule, so
// the fast mode has its own committed fingerprint and `make golden` covers
// both execution modes.
func TestGoldenSnapshotsSampled(t *testing.T) {
	for _, name := range goldenWorkloads {
		t.Run(name, func(t *testing.T) {
			compareGolden(t, sampledGoldenPath(name), runGolden(t, sampledGoldenConfig(), name))
		})
	}
}

// TestGeneratorDeterminism pins the property the golden suite (and every
// repro trace) depends on: a workload's generator yields the identical
// instruction stream from every fresh reader, and the seen/unseen splits of
// the same family diverge (they are salted differently, so the unseen
// goldens genuinely exercise different streams).
func TestGeneratorDeterminism(t *testing.T) {
	record := func(name string) []trace.Instr {
		t.Helper()
		w, ok := trace.ByName(name)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		r, err := w.NewReader()
		if err != nil {
			t.Fatal(err)
		}
		return trace.Record(r, 2_000)
	}
	for _, name := range goldenWorkloads {
		a, b := record(name), record(name)
		if len(a) != len(b) {
			t.Fatalf("%s: fresh readers yielded %d vs %d instructions", name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: instruction %d differs across fresh readers: %+v vs %+v", name, i, a[i], b[i])
			}
		}
	}
	for _, pair := range [][2]string{
		{"spec.stream_s00", "spec.stream_u00"},
		{"spec.pagehop_s00", "spec.pagehop_u00"},
		{"gap.graph_s00", "gap.graph_u00"},
	} {
		seen, unseen := record(pair[0]), record(pair[1])
		same := len(seen) == len(unseen)
		if same {
			for i := range seen {
				if seen[i] != unseen[i] {
					same = false
					break
				}
			}
		}
		if same {
			t.Fatalf("%s and %s produced identical streams; the unseen salt is not applied", pair[0], pair[1])
		}
	}
}

// goldenMixes are small multi-core mixes that together cover the shared-LLC
// machine's modes: full-detail DRIPPER, Permit with the invariant checker
// sweeping every core, and functional (sampled) warmup ahead of a detailed
// measured phase.
var goldenMixes = []struct {
	name      string
	workloads []string
	set       func(*MultiConfig)
}{
	{"dripper2", []string{"spec.stream_s00", "spec.pagehop_s00"}, func(mc *MultiConfig) {
		mc.PerCore.Policy = PolicyDripper
	}},
	{"permit4-check", []string{"spec.stream_s00", "spec.pagehop_s00", "gap.graph_s00", "qmm_int.qmm_s00"}, func(mc *MultiConfig) {
		mc.PerCore.Policy = PolicyPermit
		mc.PerCore.Check.Enabled = true
	}},
	{"sampled-warmup2", []string{"spec.stream_s00", "gap.graph_s00"}, func(mc *MultiConfig) {
		mc.PerCore.Policy = PolicyDripper
		mc.PerCore.Sample = SampleConfig{Enabled: true}
	}},
}

// mixSnapshot fingerprints a finished mix as one snapshot: every core's
// registry under "c<i>.", the statistics RunMix returned for it under
// "c<i>.run.", and the shared LLC and DRAM under "llc." and "dram.".
func mixSnapshot(m *MultiSystem, runs []*stats.Run) metrics.Snapshot {
	shared := metrics.NewRegistry()
	m.LLC.RegisterMetrics(shared, "llc")
	m.DRAM.RegisterMetrics(shared, "dram")
	out := shared.Snapshot()
	for i, sys := range m.Systems {
		prefix := fmt.Sprintf("c%d.", i)
		for _, e := range sys.Snapshot().Metrics {
			e.Name = prefix + e.Name
			out.Metrics = append(out.Metrics, e)
		}
		out.Metrics = appendFields(out.Metrics, prefix+"run.", reflect.ValueOf(*runs[i]))
	}
	sort.Slice(out.Metrics, func(a, b int) bool { return out.Metrics[a].Name < out.Metrics[b].Name })
	return out
}

// appendFields appends every uint64 field of the struct v, recursively, as
// a counter named prefix + the field path.
func appendFields(out []metrics.Metric, prefix string, v reflect.Value) []metrics.Metric {
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), prefix+v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Struct:
			out = appendFields(out, name+".", f)
		case reflect.Uint64:
			out = append(out, metrics.Metric{Name: name, Kind: metrics.KindCounter, Value: f.Uint()})
		}
	}
	return out
}

// TestGoldenMulticore pins the multi-core path the way TestGoldenSnapshots
// pins the single-core one: per-core registries, the per-core results and
// the shared levels of each golden mix, re-recorded with -update.
func TestGoldenMulticore(t *testing.T) {
	for _, gm := range goldenMixes {
		t.Run(gm.name, func(t *testing.T) {
			mc := DefaultMultiConfig()
			mc.Cores = len(gm.workloads)
			mc.PerCore.WarmupInstrs = 10_000
			mc.PerCore.SimInstrs = 20_000
			gm.set(&mc)
			m, err := NewMulti(mc)
			if err != nil {
				t.Fatal(err)
			}
			var mix []trace.Workload
			for _, n := range gm.workloads {
				w, ok := trace.ByName(n)
				if !ok {
					t.Fatalf("workload %s missing", n)
				}
				mix = append(mix, w)
			}
			runs, err := m.RunMix(context.Background(), mix)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := mixSnapshot(m, runs).WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			compareGolden(t, filepath.Join("testdata", "golden", "multicore", gm.name+".json"), buf.Bytes())
		})
	}
}
