// Error taxonomy of the resilient execution layer. Long matrix campaigns
// (396 workloads × 7 scenarios in §V) must survive individual-run failures:
// every abnormal termination of a run is classified into one of the typed
// errors below so the harness can decide whether to retry, record it in a
// failure ledger, or tear the campaign down.
//
//   - StallError: the forward-progress watchdog aborted a run that stopped
//     retiring (or exceeded its cycle ceiling). Never retryable — the same
//     deterministic trace would stall again.
//   - RunError: wraps any failure of one (workload, stage) run, including
//     recovered panics and context cancellation, with enough identity for a
//     ledger entry.
//   - Retryable: reports whether an error advertises itself as transient
//     (e.g. injected transient faults, future I/O); the matrix harness
//     retries those with backoff.
package sim

import (
	"errors"
	"fmt"
)

// StallSnapshot is the diagnostic state captured when the watchdog fires,
// enough to localise a stall without re-running: where the ROB head is
// stuck, how full the MSHRs are, and whether page walks are in flight. Its
// values are read from the system's unified metrics registry (the same
// counters -metrics-out exports).
type StallSnapshot struct {
	Cycle           uint64 // core cycle at capture
	Retired         uint64 // lifetime retired instructions (never reset)
	LastRetireCycle uint64 // cycle of the most recent retirement

	ROBOccupancy int    // entries occupied
	ROBSize      int    // total entries
	ROBHeadPC    uint64 // PC of the instruction blocking retirement
	ROBHeadReady uint64 // cycle at which the head claims it will complete

	L1DMSHRs, L2CMSHRs, LLCMSHRs int // in-flight fills per level
	InflightWalks                int // outstanding page walks
}

// String renders the snapshot on one line for error messages and logs.
func (s StallSnapshot) String() string {
	return fmt.Sprintf(
		"cycle=%d retired=%d lastRetire=%d rob=%d/%d head{pc=%#x ready=%d} mshr{l1d=%d l2c=%d llc=%d} walks=%d",
		s.Cycle, s.Retired, s.LastRetireCycle, s.ROBOccupancy, s.ROBSize,
		s.ROBHeadPC, s.ROBHeadReady, s.L1DMSHRs, s.L2CMSHRs, s.LLCMSHRs,
		s.InflightWalks)
}

// StallReason says which watchdog bound tripped.
type StallReason string

const (
	// StallNoRetire means no instruction retired for the configured bound.
	StallNoRetire StallReason = "no-retire"
	// StallCycleCeiling means the run exceeded its total-cycle ceiling.
	StallCycleCeiling StallReason = "cycle-ceiling"
)

// StallError reports that the forward-progress watchdog aborted a run,
// carrying the bound that tripped and a diagnostic snapshot.
type StallError struct {
	Reason StallReason
	Bound  uint64 // the cycle bound that was exceeded
	Snap   StallSnapshot
}

// Error implements error.
func (e *StallError) Error() string {
	return fmt.Sprintf("sim: watchdog: %s bound %d exceeded [%s]", e.Reason, e.Bound, e.Snap)
}

// RunError wraps the failure of one simulation run with enough identity for
// a matrix failure ledger: which workload, which stage of the run, and
// whether the failure was a recovered panic.
type RunError struct {
	Workload string
	Stage    string // "setup", "build", "warmup", "measure", "check" or "trace"
	Panicked bool
	Err      error
}

// Error implements error.
func (e *RunError) Error() string {
	kind := "error"
	if e.Panicked {
		kind = "panic"
	}
	return fmt.Sprintf("sim: run %s: %s during %s: %v", e.Workload, kind, e.Stage, e.Err)
}

// Unwrap exposes the cause so errors.Is/As see through the wrapper.
func (e *RunError) Unwrap() error { return e.Err }

// Retryable walks err's Unwrap chain looking for an error that advertises
// `Retryable() bool`. Watchdog stalls, panics and cancellations do not (the
// same deterministic input would fail again); transient faults do.
func Retryable(err error) bool {
	for err != nil {
		if e, ok := err.(*RunError); ok && e.Panicked {
			return false
		}
		if r, ok := err.(interface{ Retryable() bool }); ok {
			return r.Retryable()
		}
		err = errors.Unwrap(err)
	}
	return false
}
