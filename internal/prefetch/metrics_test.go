package prefetch

import (
	"testing"

	"repro/internal/metrics"
)

func TestThrottleRegisterMetrics(t *testing.T) {
	th := NewThrottle(NewBerti())
	r := metrics.NewRegistry()
	r.Source("prefetch.l1d.fdp", th)

	th.Train(Access{Addr: 0x1000, PC: 0x400100, Cycle: 10})
	th.Train(Access{Addr: 0x1040, PC: 0x400100, Cycle: 20})

	if v, _ := r.Value("prefetch.l1d.fdp.accesses"); v != 2 {
		t.Fatalf("accesses = %d", v)
	}
	if v, ok := r.Value("prefetch.l1d.fdp.level"); !ok || v != uint64(th.Level()) {
		t.Fatalf("level gauge = %d (ok=%v), Level() = %d", v, ok, th.Level())
	}
	for _, name := range []string{"prefetch.l1d.fdp.interval_useful",
		"prefetch.l1d.fdp.interval_useless"} {
		if _, ok := r.Value(name); !ok {
			t.Errorf("metric %q missing", name)
		}
	}
}
