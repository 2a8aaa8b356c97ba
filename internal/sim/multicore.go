package sim

import (
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/stats"
	"repro/internal/trace"
)

// MultiConfig describes an N-core system: private L1s/L2s/TLBs/walkers per
// core, shared LLC and DRAM (Table IV's 8-core configuration).
type MultiConfig struct {
	// PerCore is the per-core configuration (policy, prefetchers, sizes).
	// Its WarmupInstrs/SimInstrs fields set per-core budgets.
	PerCore Config
	// Cores is the core count (8 in the paper).
	Cores int
	// QuantumCycles is the round-robin interleave grain across cores.
	QuantumCycles uint64
}

// DefaultMultiConfig returns the Table IV 8-core setup.
func DefaultMultiConfig() MultiConfig {
	per := DefaultConfig()
	per.VMem.MemBytes = 16 << 30
	per.Core.ReplayOnEnd = true
	// Multi-core runs are heavy; the paper replays each workload until all
	// cores finish their budgets.
	return MultiConfig{PerCore: per, Cores: 8, QuantumCycles: 256}
}

// MultiSystem is an N-core machine with shared LLC and DRAM.
type MultiSystem struct {
	cfg     MultiConfig
	Systems []*System
	LLC     *cache.Cache
	DRAM    *dram.DRAM
}

// NewMulti builds the machine.
func NewMulti(cfg MultiConfig) (*MultiSystem, error) {
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("sim: core count %d must be positive", cfg.Cores)
	}
	if cfg.QuantumCycles == 0 {
		cfg.QuantumCycles = 256
	}
	d, err := dram.New(cfg.PerCore.DRAM)
	if err != nil {
		return nil, err
	}
	llc, err := cache.New(cfg.PerCore.LLC, d)
	if err != nil {
		return nil, err
	}
	m := &MultiSystem{cfg: cfg, LLC: llc, DRAM: d}
	for i := 0; i < cfg.Cores; i++ {
		per := cfg.PerCore
		per.VMem.Seed = cfg.PerCore.VMem.Seed + uint64(i)*7919
		per.Core.ReplayOnEnd = true
		sys, err := newSystem(per, llc, d)
		if err != nil {
			return nil, err
		}
		m.Systems = append(m.Systems, sys)
	}
	return m, nil
}

// RunMix runs one multi-programmed mix: workload[i] on core i. Per §IV-A2,
// cores that finish their instruction budget replay their trace until every
// core has finished; statistics stop at each core's own budget boundary
// (the core stops retiring into Stats once its budget is spent, so replay
// only keeps pressure on the shared levels). It returns ctx.Err() promptly
// on cancellation and a *StallError when no core retires any instruction for
// the watchdog's configured bound (a shared-level deadlock would otherwise
// spin the interleave loop forever).
func (m *MultiSystem) RunMix(ctx context.Context, mix []trace.Workload) ([]*stats.Run, error) {
	if len(mix) != len(m.Systems) {
		return nil, fmt.Errorf("sim: mix has %d workloads for %d cores", len(mix), len(m.Systems))
	}
	// Warmup phase.
	readers := make([]trace.Reader, len(mix))
	for i, w := range mix {
		r, err := w.NewReader()
		if err != nil {
			return nil, &RunError{Workload: w.Name, Stage: "setup", Err: err}
		}
		readers[i] = m.cfg.PerCore.FaultInject.WrapReader(r)
	}
	wd := newMultiWatchdog(m)
	if sc := m.cfg.PerCore.Sample; sc.Enabled {
		// Sampled multi-core runs replace the detailed warmup interleave
		// with per-core functional warmup: TLBs, private caches and the
		// shared LLC reach the same residency state at a fraction of the
		// cost. The measured phase stays fully detailed — per-core interval
		// gaps cannot be aligned across cores without distorting the
		// shared-LLC/DRAM contention the mix exists to measure.
		if err := sc.Validate(); err != nil {
			return nil, &RunError{Workload: mix[0].Name, Stage: "setup", Err: err}
		}
		for i, sys := range m.Systems {
			if err := sys.warmup(ctx, readers[i], m.cfg.PerCore.WarmupInstrs); err != nil {
				return nil, &RunError{Workload: mix[i].Name, Stage: "warmup", Err: err}
			}
			sys.gapReset()
		}
	} else {
		for i := range mix {
			m.Systems[i].Core.Attach(readers[i], m.cfg.PerCore.WarmupInstrs)
		}
		if err := m.interleave(ctx, wd); err != nil {
			return nil, err
		}
	}
	for _, sys := range m.Systems {
		sys.ResetStats()
	}
	m.DRAM.Stats = dram.Stats{}
	*m.LLC.Stats = stats.CacheStats{}

	// Measured phase: each core's statistics are snapshotted the moment its
	// own budget retires; cores that finish early are re-attached (replay)
	// so they keep contending on the shared LLC and DRAM until every core
	// has finished, as §IV-A2 prescribes.
	for i := range mix {
		m.Systems[i].Core.Attach(readers[i], m.cfg.PerCore.SimInstrs)
	}
	out := make([]*stats.Run, len(mix))
	remaining := len(mix)
	for remaining > 0 {
		for i, sys := range m.Systems {
			if out[i] == nil && sys.Core.Done() {
				out[i] = sys.Collect(mix[i].Name, mix[i].Suite)
				out[i].LLC = *m.LLC.Stats // shared level
				remaining--
				if remaining == 0 {
					break
				}
				sys.Core.Attach(readers[i], m.cfg.PerCore.SimInstrs)
			}
			sys.Core.StepCycles(m.cfg.QuantumCycles)
		}
		if err := wd.check(ctx); err != nil {
			return nil, err
		}
	}
	if err := m.checkSweep(); err != nil {
		return nil, err
	}
	return out, nil
}

// checkSweep runs every core's invariant checker once — the multi-core
// analogue of the single-core poll-grain sweep. Cores without a checker
// (Check disabled) cost one nil comparison each.
func (m *MultiSystem) checkSweep() error {
	for _, sys := range m.Systems {
		if sys.checker == nil {
			continue
		}
		sys.runChecks(sys.Core.Cycle())
		if err := sys.checker.Err(); err != nil {
			return err
		}
	}
	return nil
}

// interleave steps all cores in round-robin quanta until every core is done.
func (m *MultiSystem) interleave(ctx context.Context, wd *multiWatchdog) error {
	for {
		allDone := true
		for _, sys := range m.Systems {
			if !sys.Core.Done() {
				allDone = false
				sys.Core.StepCycles(m.cfg.QuantumCycles)
			}
		}
		if allDone {
			return nil
		}
		if err := wd.check(ctx); err != nil {
			return err
		}
	}
}

// multiWatchdog adapts the single-core watchdog to the interleave loop:
// progress is the sum of lifetime retirements over all cores, checked once
// per round-robin sweep (each sweep advances every live core by
// QuantumCycles, so sweeps are a cycle-proportional clock).
type multiWatchdog struct {
	m           *MultiSystem
	wd          WatchdogConfig
	lastRetired uint64
	idleSweeps  uint64 // consecutive sweeps without any retirement
	sweeps      uint64
	// checkEverySweeps is the invariant-check grain in sweeps (0 when no
	// core has a checker), sized so checks fire at roughly the single-core
	// PollEvery cycle grain.
	checkEverySweeps uint64
}

func newMultiWatchdog(m *MultiSystem) *multiWatchdog {
	w := &multiWatchdog{m: m, wd: m.cfg.PerCore.Watchdog.withDefaults()}
	if m.cfg.PerCore.Check.Enabled {
		w.checkEverySweeps = w.wd.PollEvery / m.cfg.QuantumCycles
		if w.checkEverySweeps == 0 {
			w.checkEverySweeps = 1
		}
	}
	return w
}

func (w *multiWatchdog) check(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	w.sweeps++
	if n := w.checkEverySweeps; n > 0 && w.sweeps%n == 0 {
		if err := w.m.checkSweep(); err != nil {
			return err
		}
	}
	if w.wd.Disable {
		return nil
	}
	total := uint64(0)
	for _, sys := range w.m.Systems {
		total += sys.Core.RetiredTotal()
	}
	if total != w.lastRetired {
		w.lastRetired = total
		w.idleSweeps = 0
	} else {
		w.idleSweeps++
	}
	quantum := w.m.cfg.QuantumCycles
	if w.idleSweeps*quantum > w.wd.NoRetireBound {
		return &StallError{Reason: StallNoRetire, Bound: w.wd.NoRetireBound, Snap: w.stuckSnapshot()}
	}
	if w.wd.MaxCycles > 0 && w.sweeps*quantum > w.wd.MaxCycles {
		return &StallError{Reason: StallCycleCeiling, Bound: w.wd.MaxCycles, Snap: w.stuckSnapshot()}
	}
	return nil
}

// stuckSnapshot snapshots the first core that is still running (all cores
// are stuck when the no-retire bound trips; any live one is diagnostic).
func (w *multiWatchdog) stuckSnapshot() StallSnapshot {
	for _, sys := range w.m.Systems {
		if !sys.Core.Done() {
			return sys.StallSnapshot()
		}
	}
	return w.m.Systems[0].StallSnapshot()
}
