package core

import (
	"math/bits"
	"testing"
	"testing/quick"
)

// progTag builds a tag holding the given program-feature indexes.
func progTag(idx ...int32) Tag {
	t := Tag{NumProg: uint8(len(idx))}
	copy(t.ProgIdx[:], idx)
	return t
}

func TestProgramFeatureRegistry(t *testing.T) {
	names := ProgramFeatureNames()
	if len(names) < 19 {
		t.Fatalf("Table I needs >=19 program features, have %d", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate feature %q", n)
		}
		seen[n] = true
		f, err := LookupProgramFeature(n)
		if err != nil {
			t.Fatal(err)
		}
		// Every extractor must be callable on a zero input.
		f.Extract(Input{})
	}
	if _, err := LookupProgramFeature("nope"); err == nil {
		t.Fatal("unknown feature accepted")
	}
}

func TestFeatureExtraction(t *testing.T) {
	in := Input{PC: 0x400123, VA: 0x7fff_1234_5678, Delta: 5, FirstPageAccess: true}
	cases := map[string]uint64{
		"VA":              in.VA,
		"VA>>12":          in.VA >> 12,
		"VA>>21":          in.VA >> 21,
		"PC":              in.PC,
		"PC^Delta":        in.PC ^ 5,
		"Delta":           5,
		"CacheLineOffset": (in.VA >> 6) & 63,
	}
	for name, want := range cases {
		f, err := LookupProgramFeature(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := f.Extract(in); got != want {
			t.Errorf("%s = %#x, want %#x", name, got, want)
		}
	}
}

func TestSystemFeatureActivation(t *testing.T) {
	mpki, err := LookupSystemFeature("sTLB MPKI")
	if err != nil {
		t.Fatal(err)
	}
	// sTLB MPKI targets LOW-pressure phases: active when below threshold.
	if !mpki.Active(SystemState{STLBMPKI: 0.1}) {
		t.Fatal("sTLB MPKI should be active at low MPKI")
	}
	if mpki.Active(SystemState{STLBMPKI: 50}) {
		t.Fatal("sTLB MPKI should be inactive at high MPKI")
	}
	mr, err := LookupSystemFeature("sTLB MissRate")
	if err != nil {
		t.Fatal(err)
	}
	// sTLB Miss Rate targets HIGH-pressure phases: active when above.
	if mr.Active(SystemState{STLBMissRate: 0.01}) {
		t.Fatal("sTLB MissRate should be inactive at low miss rate")
	}
	if !mr.Active(SystemState{STLBMissRate: 0.9}) {
		t.Fatal("sTLB MissRate should be active at high miss rate")
	}
	if len(SystemFeatureNames()) != 6 {
		t.Fatalf("Table I has 6 system features, got %d", len(SystemFeatureNames()))
	}
}

func TestWeightTableSaturation(t *testing.T) {
	wt, err := NewWeightTable(16, 5)
	if err != nil {
		t.Fatal(err)
	}
	idx := wt.Index(42)
	for i := 0; i < 100; i++ {
		wt.Train(idx, true)
	}
	if wt.Weight(idx) != 15 {
		t.Fatalf("saturated max = %d, want 15", wt.Weight(idx))
	}
	for i := 0; i < 200; i++ {
		wt.Train(idx, false)
	}
	if wt.Weight(idx) != -16 {
		t.Fatalf("saturated min = %d, want -16", wt.Weight(idx))
	}
	if wt.Bits() != 5 || wt.Entries() != 16 {
		t.Fatalf("Bits=%d Entries=%d", wt.Bits(), wt.Entries())
	}
	if _, err := NewWeightTable(5, 5); err == nil {
		t.Fatal("non-power-of-two accepted")
	}
	if _, err := NewWeightTable(16, 1); err == nil {
		t.Fatal("1-bit weights accepted")
	}
}

func TestWeightTableIndexInRange(t *testing.T) {
	wt, _ := NewWeightTable(512, 5)
	prop := func(v uint64) bool {
		i := wt.Index(v)
		return i >= 0 && i < 512 && i == wt.Index(v) // deterministic
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestSatCounter(t *testing.T) {
	c, err := NewSatCounter(5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		c.Train(true)
	}
	if c.Value() != 15 {
		t.Fatalf("max = %d", c.Value())
	}
	for i := 0; i < 100; i++ {
		c.Train(false)
	}
	if c.Value() != -16 {
		t.Fatalf("min = %d", c.Value())
	}
}

func TestUpdateBuffer(t *testing.T) {
	b := NewUpdateBuffer(2)
	b.Insert(1, progTag(10))
	b.Insert(2, progTag(20))
	if b.Len() != 2 || b.Cap() != 2 {
		t.Fatalf("Len=%d Cap=%d", b.Len(), b.Cap())
	}
	// FIFO eviction: key 1 is the oldest.
	b.Insert(3, progTag(30))
	if _, ok := b.Take(1); ok {
		t.Fatal("oldest entry not evicted")
	}
	tag, ok := b.Take(3)
	if !ok || tag.ProgIdx[0] != 30 {
		t.Fatalf("Take(3) = %+v, %v", tag, ok)
	}
	// Take removes.
	if _, ok := b.Take(3); ok {
		t.Fatal("Take should remove")
	}
	// Reinsert refreshes rather than duplicating.
	b.Insert(2, progTag(99))
	if b.Len() != 1 {
		t.Fatalf("Len after refresh = %d", b.Len())
	}
	tag, _ = b.Take(2)
	if tag.ProgIdx[0] != 99 {
		t.Fatal("refresh did not update tag")
	}
}

func newDripper(t *testing.T) *Filter {
	t.Helper()
	f, err := NewFilter(DefaultDripperConfig("berti"))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFilterConfigValidation(t *testing.T) {
	if _, err := NewFilter(Config{Name: "empty"}); err == nil {
		t.Fatal("featureless filter accepted")
	}
	bad := DefaultDripperConfig("berti")
	bad.ProgramFeatures = []string{"nope"}
	if _, err := NewFilter(bad); err == nil {
		t.Fatal("unknown program feature accepted")
	}
	bad = DefaultDripperConfig("berti")
	bad.Adaptive.Levels = []int{3, 1}
	if _, err := NewFilter(bad); err == nil {
		t.Fatal("non-increasing levels accepted")
	}
}

func TestDripperStorageMatchesTableIII(t *testing.T) {
	f := newDripper(t)
	kb := f.StorageKB()
	// Table III: 0.625KB WT + 0.00125KB system counters + 0.024KB vUB +
	// 0.768KB pUB ≈ 1.42KB, which the paper reports as "1.44KB". Assert we
	// are within the same budget.
	if kb < 1.39 || kb > 1.45 {
		t.Fatalf("DRIPPER storage = %.4f KB, want ~1.40-1.44", kb)
	}
}

func TestFilterLearnsUsefulPattern(t *testing.T) {
	f := newDripper(t)
	in := Input{PC: 0x400100, VA: 0x10000, Delta: 7}
	// Positive reinforcement: every issued prefetch with this delta hits.
	for i := 0; i < 40; i++ {
		issue, tag := f.Decide(in)
		if issue {
			f.RecordIssue(uint64(0x5000+i), tag)
			f.OnDemandHitPCB(uint64(0x5000 + i))
		} else {
			f.RecordDiscard(uint64(0x9000+i), tag)
			f.OnDemandMiss(uint64(0x9000 + i)) // false negative recovery
		}
	}
	issue, _ := f.Decide(in)
	if !issue {
		t.Fatal("filter did not learn a consistently useful delta")
	}
}

func TestFilterLearnsUselessPattern(t *testing.T) {
	f := newDripper(t)
	in := Input{PC: 0x400200, VA: 0x20000, Delta: 13}
	// Phase 1: the delta proves useful, so the filter starts issuing (a
	// fresh filter is conservative, §V-B1, and needs vUB recovery to open
	// up).
	for i := 0; i < 40; i++ {
		issue, tag := f.Decide(in)
		if issue {
			f.RecordIssue(uint64(0x5000+i), tag)
			f.OnDemandHitPCB(uint64(0x5000 + i))
		} else {
			line := uint64(0x9000 + i)
			f.RecordDiscard(line, tag)
			f.OnDemandMiss(line)
		}
	}
	if issue, _ := f.Decide(in); !issue {
		t.Fatal("setup failed: filter should issue after useful phase")
	}
	// Phase 2: the delta turns useless; the filter must learn to discard.
	for i := 0; i < 80; i++ {
		issue, tag := f.Decide(in)
		if !issue {
			break
		}
		f.RecordIssue(uint64(0x5000+i), tag)
		f.OnEvictPCB(uint64(0x5000+i), false) // evicted unused
	}
	if issue, _ := f.Decide(in); issue {
		t.Fatal("filter keeps issuing a consistently useless delta")
	}
	if f.NegativeTrainings == 0 {
		t.Fatal("no negative training recorded")
	}
}

func TestVUBRecoversFalseNegatives(t *testing.T) {
	f := newDripper(t)
	in := Input{PC: 0x400300, VA: 0x30000, Delta: 21}
	// Drive the weights negative.
	for i := 0; i < 60; i++ {
		_, tag := f.Decide(in)
		f.RecordIssue(uint64(0x100+i), tag)
		f.OnEvictPCB(uint64(0x100+i), false)
	}
	if issue, _ := f.Decide(in); issue {
		t.Fatal("setup failed: filter should discard")
	}
	// Now the pattern becomes useful: each discard is followed by a demand
	// miss on the very line we declined to prefetch → vUB positive training.
	for i := 0; i < 80; i++ {
		issue, tag := f.Decide(in)
		if issue {
			break
		}
		line := uint64(0x9000 + i)
		f.RecordDiscard(line, tag)
		f.OnDemandMiss(line)
	}
	if issue, _ := f.Decide(in); !issue {
		t.Fatal("vUB training failed to re-enable a useful pattern")
	}
	if f.FalseNegativeHits == 0 {
		t.Fatal("no vUB hits recorded")
	}
}

func TestEvictOfUsefulBlockDoesNotPunish(t *testing.T) {
	f := newDripper(t)
	in := Input{PC: 0x400400, VA: 0x40000, Delta: 3}
	_, tag := f.Decide(in)
	f.RecordIssue(0x100, tag)
	neg := f.NegativeTrainings
	f.OnEvictPCB(0x100, true) // served a hit: not useless
	if f.NegativeTrainings != neg {
		t.Fatal("useful eviction punished")
	}
}

func TestSystemFeatureContributesOnlyWhenActive(t *testing.T) {
	cfg := DefaultDripperConfig("berti")
	cfg.ProgramFeatures = nil
	cfg.SystemFeatures = []string{"sTLB MissRate"} // active when rate > 0.20
	f, err := NewFilter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Inactive phase: tag has no system indexes.
	f.Tick(SystemState{STLBMissRate: 0.01})
	_, tag := f.Decide(Input{})
	if tag.SysMask != 0 {
		t.Fatal("inactive system feature participated")
	}
	// Active phase.
	f.Tick(SystemState{STLBMissRate: 0.9})
	_, tag = f.Decide(Input{})
	if bits.OnesCount8(tag.SysMask) != 1 {
		t.Fatal("active system feature did not participate")
	}
}

func TestAdaptiveThresholdAccuracyRules(t *testing.T) {
	f := newDripper(t)
	start := f.Threshold()
	// Terrible accuracy forces the high threshold.
	f.Tick(SystemState{PGCUseful: 1, PGCUseless: 99, IPC: 1})
	f.Tick(SystemState{IPC: 1}) // rules act on the *previous* epoch's stats
	if f.Threshold() <= start {
		t.Fatalf("low accuracy should raise Ta: start=%d now=%d", start, f.Threshold())
	}
	high := f.Threshold()
	lvls := DefaultAdaptiveConfig()
	if high != lvls.Levels[lvls.HighLevel] {
		t.Fatalf("Ta = %d, want t_h = %d", high, lvls.Levels[lvls.HighLevel])
	}
}

func TestAdaptiveThresholdTracksAccuracyTrend(t *testing.T) {
	f := newDripper(t)
	// Two epochs with good but rising accuracy → Ta moves up one step.
	f.Tick(SystemState{PGCUseful: 70, PGCUseless: 30, IPC: 1})
	f.Tick(SystemState{PGCUseful: 80, PGCUseless: 20, IPC: 1})
	before := f.Threshold()
	f.Tick(SystemState{IPC: 1})
	if f.Threshold() <= before-1 && f.Threshold() != before {
		t.Fatalf("rising accuracy should not lower Ta")
	}
}

func TestExtremeLLCPressureDisables(t *testing.T) {
	f := newDripper(t)
	// Pressure alone must NOT disable: streaming workloads run at ~100%
	// LLC miss rate as their steady state.
	f.Tick(SystemState{LLCMissRate: 0.99, LLCMPKI: 30, IPC: 1, PGCUseful: 9, PGCUseless: 1})
	if issue, _ := f.Decide(Input{PC: 1, VA: 2, Delta: 3}); !issue {
		t.Fatal("accurate page-cross prefetching should survive LLC pressure")
	}
	// Pressure plus demonstrably useless page-cross prefetching disables.
	f.Tick(SystemState{LLCMissRate: 0.99, LLCMPKI: 30, IPC: 1, PGCUseful: 1, PGCUseless: 99})
	if issue, _ := f.Decide(Input{PC: 1, VA: 2, Delta: 3}); issue {
		t.Fatal("extreme LLC pressure with useless prefetching should disable")
	}
	// A calm epoch re-enables.
	f.Tick(SystemState{LLCMissRate: 0.1, LLCMPKI: 0.5, IPC: 1})
	if f.disabled {
		t.Fatal("filter should re-enable after pressure subsides")
	}
}

func TestStaticThresholdFilterIgnoresTicks(t *testing.T) {
	f, err := NewFilter(PPFConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := f.Threshold()
	f.Tick(SystemState{PGCUseful: 0, PGCUseless: 100, IPC: 1})
	f.Tick(SystemState{IPC: 1})
	if f.Threshold() != before {
		t.Fatal("static threshold moved")
	}
}

func TestPolicies(t *testing.T) {
	in := Input{PC: 1, VA: 2, Delta: 3}
	issue, walk, _ := PermitPGC{}.Decide(in)
	if !issue || !walk {
		t.Fatal("PermitPGC should issue and walk")
	}
	issue, _, _ = DiscardPGC{}.Decide(in)
	if issue {
		t.Fatal("DiscardPGC should not issue")
	}
	issue, walk, _ = DiscardPTW{}.Decide(in)
	if !issue || walk {
		t.Fatal("DiscardPTW should issue but not walk")
	}
	names := map[string]bool{}
	for _, p := range []Policy{PermitPGC{}, DiscardPGC{}, DiscardPTW{}} {
		if p.Name() == "" || names[p.Name()] {
			t.Fatal("bad policy name")
		}
		names[p.Name()] = true
		// Hooks must be safe no-ops.
		p.RecordIssue(1, Tag{})
		p.RecordDiscard(1, Tag{})
		p.OnDemandMiss(1)
		p.OnDemandHitPCB(1)
		p.OnEvictPCB(1, false)
		p.Tick(SystemState{})
	}
}

func TestFilterPolicyWiring(t *testing.T) {
	f := newDripper(t)
	p := NewFilterPolicy(f)
	if p.Name() != f.Name() {
		t.Fatal("name mismatch")
	}
	_, walk, _ := p.Decide(Input{PC: 1})
	if !walk {
		t.Fatal("issued filter prefetches must be allowed to walk")
	}
}

func TestPrototypeConfigs(t *testing.T) {
	for _, cfg := range []Config{
		DefaultDripperConfig("berti"),
		DefaultDripperConfig("ipcp"),
		DefaultDripperConfig("bop"),
		PPFConfig(),
		PPFDthrConfig(),
		DripperSFConfig("berti"),
		SingleFeatureConfig("Delta"),
		SingleFeatureConfig("sTLB MPKI"),
	} {
		if _, err := NewFilter(cfg); err != nil {
			t.Errorf("config %s rejected: %v", cfg.Name, err)
		}
	}
	// Table II: Berti uses Delta, BOP/IPCP use PC^Delta.
	if DefaultDripperConfig("berti").ProgramFeatures[0] != "Delta" {
		t.Fatal("Berti DRIPPER should use Delta")
	}
	if DefaultDripperConfig("bop").ProgramFeatures[0] != "PC^Delta" {
		t.Fatal("BOP DRIPPER should use PC^Delta")
	}
	if len(DripperSFConfig("berti").ProgramFeatures) != 0 {
		t.Fatal("DRIPPER-SF must have no program features")
	}
}

func TestGreedySelection(t *testing.T) {
	// Synthetic evaluator: "Delta" is worth 1.05, "sTLB MPKI" adds 0.02,
	// everything else is noise below the gain threshold.
	eval := func(cfg Config) (float64, error) {
		score := 1.0
		for _, n := range append(cfg.ProgramFeatures, cfg.SystemFeatures...) {
			switch n {
			case "Delta":
				score += 0.05
			case "sTLB MPKI":
				score += 0.02
			case "PC":
				score += 0.001
			}
		}
		return score, nil
	}
	res, err := SelectFeatures(DefaultDripperConfig("berti"),
		[]string{"PC", "Delta", "sTLB MPKI", "VA"}, 0.003, eval)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ranking[0] != "Delta" {
		t.Fatalf("ranking[0] = %s", res.Ranking[0])
	}
	want := []string{"Delta", "sTLB MPKI"}
	if len(res.Selected) != len(want) || res.Selected[0] != want[0] || res.Selected[1] != want[1] {
		t.Fatalf("selected = %v, want %v", res.Selected, want)
	}
	if res.Score < 1.069 || res.Score > 1.071 {
		t.Fatalf("score = %g", res.Score)
	}
	if _, err := SelectFeatures(DefaultDripperConfig("berti"), nil, 0, eval); err == nil {
		t.Fatal("empty candidate list accepted")
	}
}

func TestFilterAccuracyCounter(t *testing.T) {
	f := newDripper(t)
	if f.Accuracy() != -1 {
		t.Fatal("untrained accuracy should be -1")
	}
	_, tag := f.Decide(Input{})
	f.RecordIssue(1, tag)
	f.OnDemandHitPCB(1)
	if f.Accuracy() != 1 {
		t.Fatalf("accuracy = %g", f.Accuracy())
	}
}
