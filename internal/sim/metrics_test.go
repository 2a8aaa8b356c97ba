package sim

import (
	"context"
	"fmt"
	"strings"
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
// prefetcher and a shared-LLC mix — and checks every registry it builds,
// including that only the sampled one names sample.* counters.
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
		// sample.* exists only in a sampled system's snapshot.
		samples := 0
		for _, m := range sys.Snapshot().Metrics {
			if strings.HasPrefix(m.Name, "sample.") {
				samples++
			}
		}
		if want := map[bool]int{false: 0, true: 3}[cfg.Sample.Enabled]; samples != want {
			t.Errorf("%s: %d sample.* metrics, want %d", tc.name, samples, want)
		}
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

// TestSimCountersResetWithStats checks the sim layer's own counters against
// the warmup boundary: the warmup trains the L1D prefetcher, ResetStats
// zeroes prefetch.l1d.trains with the component statistics, and after the
// measured phase it counts exactly that phase's demand accesses.
func TestSimCountersResetWithStats(t *testing.T) {
	w, ok := trace.ByName("spec.stream_s00")
	if !ok {
		t.Fatal("workload missing")
	}
	cfg := DefaultConfig()
	cfg.Policy = PolicyDripper
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reader, err := w.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	value := func(name string) uint64 {
		v, ok := sys.Metrics.Value(name)
		if !ok {
			t.Fatalf("metric %q not registered", name)
		}
		return v
	}
	sys.Core.Attach(reader, 5_000)
	if err := sys.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if value("prefetch.l1d.trains") == 0 {
		t.Fatal("warmup trained nothing")
	}
	sys.ResetStats()
	for _, name := range []string{"prefetch.l1d.trains", "prefetch.l1d.candidates",
		"prefetch.l1i.candidates", "prefetch.l2c.candidates", "sim.epochs"} {
		if v := value(name); v != 0 {
			t.Errorf("%s = %d after ResetStats", name, v)
		}
	}
	sys.Core.Attach(reader, 10_000)
	if err := sys.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if trains, acc := value("prefetch.l1d.trains"), value("l1d.demand_accesses"); trains == 0 || trains != acc {
		t.Fatalf("measured-phase trains = %d, want the phase's %d L1D demand accesses", trains, acc)
	}
}
