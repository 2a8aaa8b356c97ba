package sim

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// checkRegistry holds a registry to its read contract: Snapshot names are
// unique and sorted, and Value reads what Snapshot reads for every counter
// and gauge (and nothing for a histogram).
func checkRegistry(t *testing.T, what string, r *metrics.Registry) {
	t.Helper()
	snap := r.Snapshot()
	if len(snap.Metrics) == 0 {
		t.Fatalf("%s: empty snapshot", what)
	}
	for i, m := range snap.Metrics {
		if i > 0 && snap.Metrics[i-1].Name >= m.Name {
			t.Fatalf("%s: %q after %q: names not unique and sorted", what, m.Name, snap.Metrics[i-1].Name)
		}
		v, ok := r.Value(m.Name)
		if m.Kind == metrics.KindHistogram {
			if ok {
				t.Errorf("%s: Value(%q) reads a histogram", what, m.Name)
			}
			continue
		}
		if !ok || v != m.Value {
			t.Errorf("%s: Value(%q) = %d, %v; snapshot has %d", what, m.Name, v, ok, m.Value)
		}
	}
	if _, ok := r.Value("no.such.metric"); ok {
		t.Errorf("%s: Value of an unregistered name reads", what)
	}
}

// TestRegistryConsistency runs one system of each registration shape — the
// default single core, a sampled run, a traced run, an FDP-throttled L1D
// prefetcher and a shared-LLC mix — and checks every registry it builds.
func TestRegistryConsistency(t *testing.T) {
	w, ok := trace.ByName("spec.pagehop_s00")
	if !ok {
		t.Fatal("workload missing")
	}
	base := DefaultConfig()
	base.Policy = PolicyDripper
	base.WarmupInstrs = 5_000
	base.SimInstrs = 20_000
	for _, tc := range []struct {
		name string
		set  func(*Config)
	}{
		{"single", func(*Config) {}},
		{"sampled", func(c *Config) { c.Sample = SampleConfig{Enabled: true} }},
		{"traced", func(c *Config) { c.TraceCapacity = 1024 }},
		{"fdp", func(c *Config) { c.FDPThrottle = true }},
	} {
		cfg := base
		tc.set(&cfg)
		reader, err := w.NewReader()
		if err != nil {
			t.Fatal(err)
		}
		_, sys, err := RunTraceSystem(context.Background(), cfg, w.Name, w.Suite, reader)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checkRegistry(t, tc.name, sys.Metrics)
	}

	mc := DefaultMultiConfig()
	mc.Cores = 2
	mc.PerCore.Policy = base.Policy
	mc.PerCore.WarmupInstrs, mc.PerCore.SimInstrs = base.WarmupInstrs, base.SimInstrs
	m, err := NewMulti(mc)
	if err != nil {
		t.Fatal(err)
	}
	g, ok := trace.ByName("gap.graph_s00")
	if !ok {
		t.Fatal("workload missing")
	}
	if _, err := m.RunMix(context.Background(), []trace.Workload{w, g}); err != nil {
		t.Fatal(err)
	}
	for i, sys := range m.Systems {
		checkRegistry(t, fmt.Sprintf("mix core %d", i), sys.Metrics)
	}
	shared := metrics.NewRegistry()
	m.LLC.RegisterMetrics(shared, "llc")
	m.DRAM.RegisterMetrics(shared, "dram")
	checkRegistry(t, "mix shared", shared)
}
