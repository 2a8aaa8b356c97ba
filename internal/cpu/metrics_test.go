package cpu

import (
	"testing"

	"repro/internal/metrics"
)

func TestRegisterMetrics(t *testing.T) {
	c, err := New(DefaultConfig(), fastPorts())
	if err != nil {
		t.Fatal(err)
	}
	r := metrics.NewRegistry()
	r.Source("core", c)

	c.Attach(opTrace(500), 500)
	runAll(c)

	v := func(name string) uint64 {
		x, ok := r.Value(name)
		if !ok {
			t.Fatalf("metric %q not registered", name)
		}
		return x
	}
	if v("core.instructions") != c.Stats.Instructions {
		t.Fatalf("instructions: %d vs %d", v("core.instructions"), c.Stats.Instructions)
	}
	if v("core.cycles") == 0 {
		t.Fatal("core.cycles stayed zero after a run")
	}
	// Live gauges: the watchdog's stall snapshot reads these.
	if v("core.cycle") != c.Cycle() {
		t.Fatalf("core.cycle gauge %d vs Cycle() %d", v("core.cycle"), c.Cycle())
	}
	if v("core.retired_total") != c.RetiredTotal() {
		t.Fatal("retired_total gauge diverges")
	}
	if v("core.rob_size") != uint64(DefaultConfig().ROBSize) {
		t.Fatalf("rob_size = %d", v("core.rob_size"))
	}
	for _, g := range []string{"core.last_retire_cycle", "core.rob_occupancy",
		"core.rob_head_pc", "core.rob_head_ready"} {
		if _, ok := r.Value(g); !ok {
			t.Errorf("gauge %q missing", g)
		}
	}
}
