package experiments

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/campaign"
	"repro/internal/trace"
)

// TestMatrixDeterminism locks reproducibility through the parallel worker
// pool: two campaigns over the same (workload × scenario) matrix, run with
// GOMAXPROCS-wide concurrency, must produce identical statistics for every
// cell regardless of worker scheduling.
func TestMatrixDeterminism(t *testing.T) {
	// The pool must race for the test to mean anything; on single-CPU
	// machines raise GOMAXPROCS so workers genuinely interleave.
	if runtime.GOMAXPROCS(0) < 2 {
		prev := runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}
	wls := make([]trace.Workload, 0, 3)
	for _, name := range []string{"spec.stream_s00", "spec.pagehop_s00", "gap.graph_s00"} {
		w, ok := trace.ByName(name)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		wls = append(wls, w)
	}
	scens := []Scenario{scenarioDiscard(), scenarioDripper()}
	o := Options{Warmup: 5_000, Instrs: 10_000, Campaign: []campaign.Option{campaign.WithWorkers(4)}}

	campaign := func() Matrix {
		m, rep, err := runMatrix(o, wls, scens)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Complete() {
			t.Fatal(rep.Err())
		}
		return m
	}
	a, b := campaign(), campaign()
	for scen, cells := range a {
		for wl, run := range cells {
			other := b[scen][wl]
			if other == nil {
				t.Fatalf("%s/%s missing from second campaign", scen, wl)
			}
			if !reflect.DeepEqual(run, other) {
				t.Errorf("%s/%s diverged between campaigns:\nfirst:  %+v\nsecond: %+v",
					scen, wl, run, other)
			}
		}
	}
}
