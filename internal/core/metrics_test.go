package core

import (
	"testing"

	"repro/internal/metrics"
)

func TestFilterRegisterMetrics(t *testing.T) {
	f := newDripper(t)
	r := metrics.NewRegistry()
	r.Source("filter", f)

	in := Input{PC: 0x400100, VA: 0x7000_0000_0fc0, Delta: 2}
	_, tag := f.Decide(in)
	f.RecordIssue(0x1234, tag)
	f.RecordDiscard(0x5678, tag)
	f.RecordDiscard(0x9abc, tag)

	v := func(name string) uint64 {
		x, ok := r.Value(name)
		if !ok {
			t.Fatalf("metric %q not registered", name)
		}
		return x
	}
	if v("filter.issued") != 1 {
		t.Fatalf("filter.issued = %d", v("filter.issued"))
	}
	if v("filter.discarded") != 2 {
		t.Fatalf("filter.discarded = %d", v("filter.discarded"))
	}
	for _, name := range []string{"filter.positive_trainings", "filter.negative_trainings",
		"filter.false_negative_hits", "filter.threshold_level", "filter.disabled"} {
		if _, ok := r.Value(name); !ok {
			t.Errorf("metric %q missing", name)
		}
	}
	if v("filter.disabled") != 0 {
		t.Fatal("fresh filter reports disabled")
	}
}
