package core

import (
	"strings"
	"testing"
)

func newCheckedFilter(t *testing.T) *Filter {
	t.Helper()
	f, err := NewFilter(DefaultDripperConfig("berti"))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestCheckBounds(t *testing.T) {
	if err := newCheckedFilter(t).CheckBounds(); err != nil {
		t.Fatalf("fresh filter violates: %v", err)
	}

	cases := []struct {
		mutate func(f *Filter)
		want   string
	}{
		{func(f *Filter) { f.tables[0].weights[3] = f.tables[0].max + 1 }, "filter-weight-bounds:"},
		{func(f *Filter) { f.sysWts[0].value = f.sysWts[0].max + 1 }, "filter-counter-bounds:"},
		{func(f *Filter) { f.level = len(f.levels) }, "filter-threshold-range:"},
		{func(f *Filter) {
			f.vub.keys[0] = 0x42
			f.vub.keys[1] = 0x42
		}, "filter-vUB-duplicate-key:"},
		{func(f *Filter) { f.FalseNegativeHits = f.PositiveTrainings + 1 }, "filter-training-count:"},
	}
	for _, tc := range cases {
		f := newCheckedFilter(t)
		tc.mutate(f)
		if err := f.CheckBounds(); err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("CheckBounds = %v, want %s", err, tc.want)
		}
	}
}

func TestUpdateBufferCheckBounds(t *testing.T) {
	b := NewUpdateBuffer(4)
	for i := uint64(0); i < 9; i++ {
		b.Insert(i, Tag{})
	}
	if err := b.checkBounds(); err != nil {
		t.Fatalf("buffer after wrap violates: %v", err)
	}
}
