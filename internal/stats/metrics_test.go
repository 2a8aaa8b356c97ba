package stats

import (
	"testing"

	"repro/internal/metrics"
)

func value(t *testing.T, r *metrics.Registry, name string) uint64 {
	t.Helper()
	v, ok := r.Value(name)
	if !ok {
		t.Fatalf("metric %q not registered", name)
	}
	return v
}

func TestCacheStatsRegisterMetrics(t *testing.T) {
	s := &CacheStats{}
	r := metrics.NewRegistry()
	r.Source("l1d", s)

	s.DemandAccesses = 10
	s.DemandMisses = 4
	s.PGCIssued = 3
	if got := value(t, r, "l1d.demand_accesses"); got != 10 {
		t.Fatalf("demand_accesses = %d", got)
	}
	if got := value(t, r, "l1d.pgc_issued"); got != 3 {
		t.Fatalf("pgc_issued = %d", got)
	}

	// The registration must survive the warmup-boundary reset idiom
	// (*stats = CacheStats{}): the registry holds the block's pointer, and
	// the reset writes through the same struct.
	*s = CacheStats{}
	if got := value(t, r, "l1d.demand_misses"); got != 0 {
		t.Fatalf("after reset: demand_misses = %d", got)
	}
	s.DemandMisses = 7
	if got := value(t, r, "l1d.demand_misses"); got != 7 {
		t.Fatalf("after reset+mutate: demand_misses = %d", got)
	}
}

func TestCoreStatsRegisterMetrics(t *testing.T) {
	s := &CoreStats{Cycles: 100, Instructions: 80, Loads: 30, Branches: 5}
	r := metrics.NewRegistry()
	r.Source("core", s)
	for name, want := range map[string]uint64{
		"core.cycles":       100,
		"core.instructions": 80,
		"core.loads":        30,
		"core.branches":     5,
		"core.stores":       0,
	} {
		if got := value(t, r, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

func TestPTWStatsRegisterMetrics(t *testing.T) {
	s := &PTWStats{Walks: 9, SpeculativeWalks: 2, WalkMemAccesses: 27, PSCHits: 4}
	r := metrics.NewRegistry()
	r.Source("ptw", s)
	for name, want := range map[string]uint64{
		"ptw.walks":             9,
		"ptw.speculative_walks": 2,
		"ptw.walk_mem_accesses": 27,
		"ptw.psc_hits":          4,
	} {
		if got := value(t, r, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
