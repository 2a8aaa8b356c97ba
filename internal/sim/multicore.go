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
	llc, d, err := newMemory(cfg.PerCore)
	if err != nil {
		return nil, err
	}
	m := &MultiSystem{cfg: cfg, LLC: llc, DRAM: d}
	for i := 0; i < cfg.Cores; i++ {
		per := cfg.PerCore
		per.VMem.Seed = cfg.PerCore.VMem.Seed + uint64(i)*7919
		per.Core.ReplayOnEnd = true
		sys, err := newSystem(per, llc, d, false)
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
// only keeps pressure on the shared levels). Both phases step the cores
// through drive, QuantumCycles at a time, under the per-core watchdog: it
// returns ctx.Err() within one poll interval of cancellation and a
// *StallError when no core retires for the configured bound (a shared-level
// deadlock would otherwise spin forever). Like a single-core run, a mix is
// one fault-injection attempt. On every return each core's reader is ended
// as a single-core run ends its own (see endReader): closed, and a torn
// trace fails the mix at stage "trace".
func (m *MultiSystem) RunMix(ctx context.Context, mix []trace.Workload) (runs []*stats.Run, err error) {
	if len(mix) != len(m.Systems) {
		return nil, fmt.Errorf("sim: mix has %d workloads for %d cores", len(mix), len(m.Systems))
	}
	per := m.cfg.PerCore
	if err := per.FaultInject.BeginAttempt(); err != nil {
		return nil, &RunError{Workload: mix[0].Name, Stage: "setup", Err: err}
	}
	// Warmup phase. opened holds the workloads' own readers, which the
	// deferred end reads errors from; readers holds what the cores consume.
	opened := make([]trace.Reader, 0, len(mix))
	defer func() {
		for i, r := range opened {
			err = endReader(mix[i].Name, r, err)
		}
		if err != nil {
			runs = nil
		}
	}()
	readers := make([]trace.Reader, len(mix))
	for i, w := range mix {
		r, err := w.NewReader()
		if err != nil {
			return nil, &RunError{Workload: w.Name, Stage: "setup", Err: err}
		}
		opened = append(opened, r)
		readers[i] = per.FaultInject.WrapReader(r)
	}
	wd := per.Watchdog.withDefaults()
	if sc := per.Sample; sc.Enabled {
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
			if err := sys.warmup(ctx, readers[i], per.WarmupInstrs); err != nil {
				return nil, &RunError{Workload: mix[i].Name, Stage: "warmup", Err: err}
			}
			sys.gapReset()
		}
	} else {
		for i, sys := range m.Systems {
			sys.Core.Attach(readers[i], per.WarmupInstrs)
		}
		if err := drive(ctx, m.Systems, m.cfg.QuantumCycles, wd, nil); err != nil {
			return nil, &RunError{Workload: mix[0].Name, Stage: runStage("warmup", err), Err: err}
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
	for i, sys := range m.Systems {
		sys.Core.Attach(readers[i], per.SimInstrs)
	}
	runs = make([]*stats.Run, len(mix))
	remaining := len(mix)
	if err := drive(ctx, m.Systems, m.cfg.QuantumCycles, wd, func(i int) bool {
		if runs[i] != nil {
			return false // done replaying; stays idle
		}
		sys := m.Systems[i]
		runs[i] = sys.Collect(mix[i].Name, mix[i].Suite)
		runs[i].LLC = *m.LLC.Stats // shared level
		if remaining--; remaining == 0 {
			return true
		}
		sys.Core.Attach(readers[i], per.SimInstrs)
		return false
	}); err != nil {
		return nil, &RunError{Workload: mix[0].Name, Stage: runStage("measure", err), Err: err}
	}
	return runs, nil
}
