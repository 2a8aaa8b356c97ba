// Runtime invariant checking: the sim-side wiring of the internal/oracle
// reference model. When enabled, a Checker runs in lockstep with the timing
// simulator and cross-checks architectural state at three boundaries:
//
//   - walk-complete: every finished page walk is verified against the
//     reference page table (result, alignment, bounds, stability, aliasing,
//     walk shape) via the MMU's OnWalkEnd hook;
//   - instruction-retire epochs: filter and prefetcher metadata bounds are
//     verified at every policy Tick;
//   - poll grain: the full component sweep (MSHR leak-freedom, ROB
//     occupancy, TLB ⇒ valid PTE, PSC bounds) runs every
//     WatchdogConfig.PollEvery cycles and once more at run end.
//
// When disabled — the production default — the only cost on the hot path is
// one nil comparison per poll interval and per epoch; no checker state is
// allocated (guarded by TestCheckDisabledZeroAlloc and
// BenchmarkCheckOverhead).
package sim

import (
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/oracle"
)

// CheckError aggregates one run's invariant violations; it is the oracle's
// type, aliased so harness code can classify failures without importing the
// oracle package directly.
type CheckError = oracle.CheckError

// Violation is one recorded invariant breach (see oracle.Violation).
type Violation = oracle.Violation

// CheckConfig enables and tunes the runtime invariant checker.
type CheckConfig struct {
	// Enabled turns checking on. The zero value — disabled — costs nothing
	// on the hot path.
	Enabled bool
	// FailFast aborts the run at the first poll boundary that observes a
	// violation by panicking with the *CheckError as the panic value,
	// modelling a hardware assertion. The matrix harness recovers the typed
	// value and ledgers it as a check failure; direct callers (CLIs) should
	// leave FailFast off and consume the error Run returns.
	FailFast bool
	// MaxViolations bounds how many violations one run records; ≤0 selects
	// oracle.DefaultMaxViolations.
	MaxViolations int
}

// buildChecker constructs the oracle checker for a freshly built system.
func (s *System) buildChecker() error {
	var filter *core.Filter
	if fp, ok := s.Policy.(*core.FilterPolicy); ok {
		filter = fp.Filter
	}
	chk, err := oracle.New(oracle.Components{
		AS:         s.AS,
		MMU:        s.MMU,
		Core:       s.Core,
		Caches:     []*cache.Cache{s.L1I, s.L1D, s.L2C, s.LLC},
		CacheNames: []string{"l1i", "l1d", "l2c", "llc"},
		Filter:     filter,
		Prefetcher: s.L1DPf,
	}, s.cfg.Check.MaxViolations)
	if err != nil {
		return err
	}
	s.checker = chk
	s.MMU.OnWalkEnd = chk.OnWalkEnd
	return nil
}

// runChecks performs the poll-grain component sweep. With FailFast it
// panics on the first violation (typed *CheckError value); otherwise it
// keeps accumulating and lets Run surface the error at completion.
func (s *System) runChecks(cycle uint64) {
	err := s.checker.CheckAll(cycle)
	if err != nil && s.cfg.Check.FailFast {
		panic(err)
	}
}
