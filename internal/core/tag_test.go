package core

import (
	"strconv"
	"testing"
)

// TestNewFilterRejectsTagOverflow pins the tag's fixed width as an explicit
// limit: a configuration whose indexes would not fit a Tag is an error, not
// a silent truncation.
func TestNewFilterRejectsTagOverflow(t *testing.T) {
	base := PPFConfig()
	base.ProgramFeatures = ProgramFeatureNames()[:MaxProgramFeatures]
	if _, err := NewFilter(base); err != nil {
		t.Fatalf("filter at the feature cap rejected: %v", err)
	}

	cfg := base
	cfg.ProgramFeatures = ProgramFeatureNames()[:MaxProgramFeatures+1]
	if _, err := NewFilter(cfg); err == nil {
		t.Errorf("%d program features accepted", len(cfg.ProgramFeatures))
	}

	cfg = base
	for len(cfg.SystemFeatures) <= MaxSystemFeatures {
		cfg.SystemFeatures = append(cfg.SystemFeatures, SystemFeatureNames()...)
	}
	if _, err := NewFilter(cfg); err == nil {
		t.Errorf("%d system features accepted", len(cfg.SystemFeatures))
	}

	if strconv.IntSize < 64 {
		t.Skip("int cannot express a table wider than the int32 index")
	}
	one := 1
	cfg = base
	cfg.WTEntries = one << 32
	if _, err := NewFilter(cfg); err == nil {
		t.Errorf("%d-entry weight tables accepted", cfg.WTEntries)
	}
}

// TestSelectFeaturesStopsAtTagCap proves the greedy selection never
// evaluates a configuration past the feature cap, even when every further
// candidate would improve the score.
func TestSelectFeaturesStopsAtTagCap(t *testing.T) {
	cands := ProgramFeatureNames()[:MaxProgramFeatures+3]
	widest := 0
	eval := func(cfg Config) (float64, error) {
		widest = max(widest, len(cfg.ProgramFeatures))
		if _, err := NewFilter(cfg); err != nil {
			return 0, err
		}
		return float64(len(cfg.ProgramFeatures)), nil
	}
	res, err := SelectFeatures(PPFConfig(), cands, 0.5, eval)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != MaxProgramFeatures || widest != MaxProgramFeatures {
		t.Fatalf("selected %d features, widest evaluated %d, want both %d",
			len(res.Selected), widest, MaxProgramFeatures)
	}
}

// TestFilterZeroAlloc pins a filter's whole per-candidate cycle — decide,
// record, and train from every L1D event — at zero heap allocations for the
// DRIPPER and PPF configurations, driven through the Policy interface as
// the simulator drives it.
func TestFilterZeroAlloc(t *testing.T) {
	for _, cfg := range []Config{DefaultDripperConfig("berti"), PPFConfig()} {
		t.Run(cfg.Name, func(t *testing.T) {
			f, err := NewFilter(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var p Policy = NewFilterPolicy(f)
			p.Tick(SystemState{STLBMissRate: 0.9}) // both DRIPPER system features active
			var i uint64
			n := testing.AllocsPerRun(500, func() {
				_, _, tag := p.Decide(randomInput(i*0x9e37, i<<12, i))
				line := 0x1000 + i%256
				p.RecordIssue(line, tag)
				p.RecordDiscard(line, tag)
				if i%2 == 0 {
					p.OnDemandHitPCB(line)
				} else {
					p.OnEvictPCB(line, false)
				}
				p.OnDemandMiss(line)
				i++
			})
			if n != 0 {
				t.Fatalf("%v allocs per decision, want 0", n)
			}
			if f.PositiveTrainings == 0 || f.NegativeTrainings == 0 || f.FalseNegativeHits == 0 {
				t.Fatalf("training paths not exercised: +%d -%d vUB %d",
					f.PositiveTrainings, f.NegativeTrainings, f.FalseNegativeHits)
			}
		})
	}
}
