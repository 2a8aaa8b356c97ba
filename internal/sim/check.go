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
	// FailFast ends the run at the first poll boundary that observes a
	// violation, modelling a hardware assertion: the run returns that
	// poll's *CheckError (under the "check" stage) instead of running its
	// budget out and returning every violation at the end.
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

// runChecks performs the poll-grain component sweep and returns the
// violations accumulated so far; nil when the system is unchecked or clean.
// CheckAll's nil *CheckError must not reach the error interface, where it
// would read as a failure.
func (s *System) runChecks() error {
	if s.checker == nil {
		return nil
	}
	if err := s.checker.CheckAll(s.Core.Cycle()); err != nil {
		return err
	}
	return nil
}
