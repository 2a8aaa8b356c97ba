package core

import (
	"fmt"
	"math"
)

// AdaptiveConfig parameterises the epoch-based thresholding scheme (Fig. 8).
type AdaptiveConfig struct {
	// Levels is the ordered ladder of candidate activation thresholds; the
	// scheme moves Ta up and down this ladder one step at a time.
	Levels []int
	// MediumLevel and HighLevel index into Levels for the t_m and t_h
	// forced thresholds.
	MediumLevel, HighLevel int
	// StartLevel is the ladder index Ta starts at.
	StartLevel int

	// AccuracyLow (T1) and AccuracyMedium (T2) steer the end-of-epoch
	// accuracy rules: accuracy < T1 forces t_h, accuracy < T2 forces at
	// least t_m.
	AccuracyLow, AccuracyMedium float64
	// L1IMPKIHigh (T_L1i) forces at least t_m while instruction pressure
	// is high.
	L1IMPKIHigh float64
	// LLCMissRateExtreme disables page-cross prefetching entirely during
	// phases of extreme LLC pressure.
	LLCMissRateExtreme float64
	// ROBPressureHigh and InflightHigh together define the "high ROB
	// pressure and many in-flight L1D misses" extreme that forces t_h.
	ROBPressureHigh float64
	InflightHigh    int
	// IPCDropFrac forces at least t_m when IPC falls by more than this
	// fraction between consecutive epochs.
	IPCDropFrac float64
}

// DefaultAdaptiveConfig returns the tuning used by DRIPPER.
func DefaultAdaptiveConfig() AdaptiveConfig {
	return AdaptiveConfig{
		Levels:      []int{-8, -4, -2, 0, 2, 4, 8, 14},
		MediumLevel: 4, // t_m: Ta = 2
		HighLevel:   6, // t_h: Ta = 8
		// Ta starts below zero so untrained patterns (weight 0) issue and
		// train on their own outcomes; the tiny vUB alone cannot bootstrap
		// a pattern that is never issued. The accuracy rules raise Ta as
		// soon as issuing proves harmful.
		StartLevel:         2, // Ta = -2
		AccuracyLow:        0.30,
		AccuracyMedium:     0.60,
		L1IMPKIHigh:        5,
		LLCMissRateExtreme: 0.90,
		ROBPressureHigh:    0.90,
		InflightHigh:       32,
		IPCDropFrac:        0.10,
	}
}

// Config assembles one Page-Cross Filter from the MOKA framework.
type Config struct {
	Name string
	// ProgramFeatures names the Table I program features to use.
	ProgramFeatures []string
	// SystemFeatures names the Table I system features to use.
	SystemFeatures []string
	// WTEntries and WeightBits size each program feature's weight table
	// (Table III: 1024 × 5 bits).
	WTEntries  int
	WeightBits int
	// SystemWeightBits sizes each system feature's saturating counter.
	SystemWeightBits int
	// VUBEntries and PUBEntries size the update buffers (Table III: 4/128).
	VUBEntries, PUBEntries int
	// StaticThreshold, when non-nil, disables the adaptive scheme and uses
	// the fixed activation threshold (the PPF configuration).
	StaticThreshold *int
	// Adaptive parameterises the thresholding scheme when StaticThreshold
	// is nil.
	Adaptive AdaptiveConfig
}

// DefaultDripperConfig returns the DRIPPER configuration of Table II for
// the named prefetcher ("berti", "ipcp", "bop"); any other name gets the
// BOP/IPCP configuration, which is the framework's generic default.
func DefaultDripperConfig(prefetcher string) Config {
	prog := []string{"PC^Delta"}
	if prefetcher == "berti" {
		prog = []string{"Delta"}
	}
	return Config{
		Name:             "dripper-" + prefetcher,
		ProgramFeatures:  prog,
		SystemFeatures:   []string{"sTLB MPKI", "sTLB MissRate"},
		WTEntries:        1024,
		WeightBits:       5,
		SystemWeightBits: 5,
		VUBEntries:       4,
		PUBEntries:       128,
		Adaptive:         DefaultAdaptiveConfig(),
	}
}

// Filter is an instantiated Page-Cross Filter.
type Filter struct {
	cfg      Config
	progs    []ProgramFeature
	tables   []*WeightTable
	sysFeats []SystemFeature
	sysWts   []*SatCounter

	vub *UpdateBuffer
	pub *UpdateBuffer

	// Threshold state.
	levels   []int
	level    int
	disabled bool // extreme-LLC-pressure kill switch, reconsidered each epoch

	state   SystemState
	prevAcc float64
	prevIPC float64

	// Stats visible to the harness.
	Issued, Discarded uint64
	PositiveTrainings uint64
	NegativeTrainings uint64
	FalseNegativeHits uint64 // vUB hits: discarded prefetches that missed
}

// NewFilter builds a filter from a configuration.
func NewFilter(cfg Config) (*Filter, error) {
	if len(cfg.ProgramFeatures) == 0 && len(cfg.SystemFeatures) == 0 {
		return nil, fmt.Errorf("core: filter %q has no features", cfg.Name)
	}
	if n := len(cfg.ProgramFeatures); n > MaxProgramFeatures {
		return nil, fmt.Errorf("core: filter %q has %d program features, at most %d fit a tag", cfg.Name, n, MaxProgramFeatures)
	}
	if n := len(cfg.SystemFeatures); n > MaxSystemFeatures {
		return nil, fmt.Errorf("core: filter %q has %d system features, at most %d fit a tag", cfg.Name, n, MaxSystemFeatures)
	}
	if cfg.WTEntries == 0 {
		cfg.WTEntries = 1024
	}
	if cfg.WTEntries-1 > math.MaxInt32 {
		return nil, fmt.Errorf("core: filter %q weight tables of %d entries overflow a tag's int32 index", cfg.Name, cfg.WTEntries)
	}
	if cfg.WeightBits == 0 {
		cfg.WeightBits = 5
	}
	if cfg.SystemWeightBits == 0 {
		cfg.SystemWeightBits = 5
	}
	if cfg.VUBEntries == 0 {
		cfg.VUBEntries = 4
	}
	if cfg.PUBEntries == 0 {
		cfg.PUBEntries = 128
	}
	if cfg.StaticThreshold == nil && len(cfg.Adaptive.Levels) == 0 {
		cfg.Adaptive = DefaultAdaptiveConfig()
	}

	f := &Filter{cfg: cfg}
	for _, name := range cfg.ProgramFeatures {
		pf, err := LookupProgramFeature(name)
		if err != nil {
			return nil, err
		}
		wt, err := NewWeightTable(cfg.WTEntries, cfg.WeightBits)
		if err != nil {
			return nil, err
		}
		f.progs = append(f.progs, pf)
		f.tables = append(f.tables, wt)
	}
	for _, name := range cfg.SystemFeatures {
		sf, err := LookupSystemFeature(name)
		if err != nil {
			return nil, err
		}
		sc, err := NewSatCounter(cfg.SystemWeightBits)
		if err != nil {
			return nil, err
		}
		f.sysFeats = append(f.sysFeats, sf)
		f.sysWts = append(f.sysWts, sc)
	}
	f.vub = NewUpdateBuffer(cfg.VUBEntries)
	f.pub = NewUpdateBuffer(cfg.PUBEntries)

	if cfg.StaticThreshold != nil {
		f.levels = []int{*cfg.StaticThreshold}
		f.level = 0
	} else {
		a := cfg.Adaptive
		if err := a.validate(); err != nil {
			return nil, err
		}
		f.levels = a.Levels
		f.level = a.StartLevel
	}
	f.prevAcc = -1
	f.prevIPC = -1
	return f, nil
}

func (a AdaptiveConfig) validate() error {
	if len(a.Levels) == 0 {
		return fmt.Errorf("core: adaptive config has no threshold levels")
	}
	for i := 1; i < len(a.Levels); i++ {
		if a.Levels[i] <= a.Levels[i-1] {
			return fmt.Errorf("core: threshold levels must be strictly increasing")
		}
	}
	if a.MediumLevel < 0 || a.MediumLevel >= len(a.Levels) ||
		a.HighLevel < 0 || a.HighLevel >= len(a.Levels) ||
		a.StartLevel < 0 || a.StartLevel >= len(a.Levels) {
		return fmt.Errorf("core: threshold level indexes out of range")
	}
	return nil
}

// Name returns the configured name.
func (f *Filter) Name() string { return f.cfg.Name }

// Threshold returns the current activation threshold Ta.
func (f *Filter) Threshold() int { return f.levels[f.level] }

// adaptive reports whether the adaptive scheme is enabled.
func (f *Filter) adaptive() bool { return f.cfg.StaticThreshold == nil }

// Decide predicts the usefulness of a page-cross prefetch (Fig. 6). It
// returns whether to issue the prefetch and the Tag identifying the weights
// consulted; the caller must hand the tag back via RecordIssue or
// RecordDiscard so training can find them.
func (f *Filter) Decide(in Input) (issue bool, tag Tag) {
	// Mid-epoch extreme detection (Fig. 8 step ❷): reacts "on the spot"
	// using the live pressure fields of the last snapshot.
	if f.adaptive() && f.disabled {
		// Extreme LLC pressure: page-cross prefetching is off; vUB still
		// learns from the misses of the prefetches we decline (the caller
		// records them), which is what re-enables prefetching later.
		tag = f.tagFor(in)
		return false, tag
	}

	tag = f.tagFor(in)
	sum := 0
	for i, idx := range tag.ProgIdx[:tag.NumProg] {
		sum += f.tables[i].Weight(int(idx))
	}
	for m, si := tag.SysMask, 0; m != 0; m, si = m>>1, si+1 {
		if m&1 != 0 {
			sum += f.sysWts[si].Value()
		}
	}
	return sum > f.effectiveThreshold(), tag
}

// effectiveThreshold applies the on-the-spot extreme rules on top of the
// epoch-level Ta.
func (f *Filter) effectiveThreshold() int {
	ta := f.level
	if !f.adaptive() {
		return f.levels[ta]
	}
	a := f.cfg.Adaptive
	// Under high ROB pressure with many in-flight misses, only permit
	// page-cross prefetches "with very high confidence" (Fig. 8). A
	// memory-bound workload lives in that pressure state permanently, so
	// the rule engages only once training has shown the filter's issued
	// prefetches are not earning their cost — otherwise it would starve
	// the filter of the very outcomes that build confidence.
	if f.state.ROBPressure > a.ROBPressureHigh && f.state.InflightL1DMisses > a.InflightHigh {
		if acc := f.Accuracy(); acc >= 0 && acc < a.AccuracyMedium && ta < a.HighLevel {
			ta = a.HighLevel
		}
	}
	if acc := f.state.PGCAccuracy(); acc >= 0 && acc < a.AccuracyLow {
		if ta < a.HighLevel {
			ta = a.HighLevel
		}
	}
	if f.state.L1IMPKI > a.L1IMPKIHigh {
		if ta < a.MediumLevel {
			ta = a.MediumLevel
		}
	}
	return f.levels[ta]
}

// tagFor computes the weight indexes of a decision.
func (f *Filter) tagFor(in Input) Tag {
	tag := Tag{NumProg: uint8(len(f.progs))}
	for i, pf := range f.progs {
		tag.ProgIdx[i] = int32(f.tables[i].Index(pf.Extract(in)))
	}
	for si, sf := range f.sysFeats {
		if sf.Active(f.state) {
			tag.SysMask |= 1 << si
		}
	}
	return tag
}

// RecordIssue registers an issued page-cross prefetch in the pUB, keyed by
// its physical line address (§III-B).
func (f *Filter) RecordIssue(paLine uint64, tag Tag) {
	f.Issued++
	f.pub.Insert(paLine, tag)
}

// RecordDiscard registers a discarded page-cross prefetch in the vUB,
// keyed by its virtual line address.
func (f *Filter) RecordDiscard(vaLine uint64, tag Tag) {
	f.Discarded++
	f.vub.Insert(vaLine, tag)
}

// OnDemandMiss trains on an L1D demand miss (Fig. 7 ❶–❸): a vUB hit means
// the filter erroneously discarded a page-cross prefetch that would have
// covered this miss, so the involved weights are incremented.
func (f *Filter) OnDemandMiss(vaLine uint64) {
	if tag, ok := f.vub.Take(vaLine); ok {
		f.FalseNegativeHits++
		f.train(tag, true)
	}
}

// OnDemandHitPCB trains on an L1D demand hit whose block has the Page-Cross
// Bit set (Fig. 7 ❹–❼): the prefetch was useful, reward its weights.
func (f *Filter) OnDemandHitPCB(paLine uint64) {
	if tag, ok := f.pub.Take(paLine); ok {
		f.train(tag, true)
	}
}

// OnEvictPCB trains on the eviction of a PCB block (Fig. 7 ❽–⓫): if the
// block never served a hit the prefetch was useless, punish its weights.
func (f *Filter) OnEvictPCB(paLine uint64, servedHit bool) {
	if servedHit {
		// Useful block leaving the cache: nothing to learn; drop any stale
		// pUB entry.
		f.pub.Take(paLine)
		return
	}
	if tag, ok := f.pub.Take(paLine); ok {
		f.train(tag, false)
	}
}

func (f *Filter) train(tag Tag, positive bool) {
	if positive {
		f.PositiveTrainings++
	} else {
		f.NegativeTrainings++
	}
	for i, idx := range tag.ProgIdx[:tag.NumProg] {
		f.tables[i].Train(int(idx), positive)
	}
	for m, si := tag.SysMask, 0; m != 0; m, si = m>>1, si+1 {
		if m&1 != 0 {
			f.sysWts[si].Train(positive)
		}
	}
}

// Tick closes an epoch: the filter snapshots the new system state and the
// adaptive scheme re-tunes Ta from the previous epoch's statistics
// (Fig. 8 steps ❸–❻).
func (f *Filter) Tick(state SystemState) {
	f.state = state
	if !f.adaptive() {
		return
	}
	a := f.cfg.Adaptive

	// Extreme LLC pressure disables page-cross prefetching for the next
	// epoch; any calmer epoch re-enables it (the vUB keeps learning from
	// the misses meanwhile, §III-C3). A streaming workload runs at ~100%
	// LLC miss rate as its steady state, so pressure alone is not the
	// trigger — the kill switch fires when that pressure coincides with
	// page-cross prefetches demonstrably failing to earn their cost.
	// acc is the page-cross accuracy of the epoch that just closed (the
	// snapshot being delivered); f.prevAcc carries the last epoch that had
	// outcome data.
	acc := state.PGCAccuracy()
	f.disabled = state.LLCMissRate > a.LLCMissRateExtreme && state.LLCMPKI > 1 &&
		acc >= 0 && acc < a.AccuracyLow

	switch {
	case acc >= 0 && acc < a.AccuracyLow:
		if f.level < a.HighLevel {
			f.level = a.HighLevel
		}
	case acc >= 0 && acc < a.AccuracyMedium:
		if f.level < a.MediumLevel {
			f.level = a.MediumLevel
		}
	case acc >= 0 && f.prevAcc >= 0:
		// Fig. 8 ❸: accuracy rising → Ta += 1; falling → Ta -= 1.
		if acc > f.prevAcc && f.level < len(f.levels)-1 {
			f.level++
		} else if acc < f.prevAcc && f.level > 0 {
			f.level--
		}
	}

	// Fig. 8 ❻: IPC drop between consecutive epochs forces at least t_m.
	if f.prevIPC > 0 && state.IPC > 0 &&
		state.IPC < f.prevIPC*(1-a.IPCDropFrac) && f.level < a.MediumLevel {
		f.level = a.MediumLevel
	}

	if acc >= 0 {
		f.prevAcc = acc
	}
	if state.IPC > 0 {
		f.prevIPC = state.IPC
	}
}

// StorageBits returns the hardware budget of the filter in bits, following
// the Table III accounting: weight tables, system-feature counters, and the
// two update buffers at (36+12) bits per entry.
func (f *Filter) StorageBits() int {
	bits := 0
	for _, t := range f.tables {
		bits += t.Entries() * t.Bits()
	}
	bits += len(f.sysWts) * f.cfg.SystemWeightBits
	bits += f.vub.Cap() * (36 + 12)
	bits += f.pub.Cap() * (36 + 12)
	return bits
}

// StorageKB returns the budget in kilobytes.
func (f *Filter) StorageKB() float64 { return float64(f.StorageBits()) / 8 / 1024 }

// Accuracy returns the filter's lifetime issue accuracy estimate from its
// training counters (positives vs negatives); -1 before any training.
func (f *Filter) Accuracy() float64 {
	tot := f.PositiveTrainings + f.NegativeTrainings
	if tot == 0 {
		return -1
	}
	return float64(f.PositiveTrainings) / float64(tot)
}
