package sim

import (
	"context"

	"repro/internal/prefetch"
	"repro/internal/sample"
	"repro/internal/stats"
	"repro/internal/trace"
)

// SampleConfig aliases the sampling configuration so callers configure
// sampling through sim.Config without importing internal/sample.
type SampleConfig = sample.Config

// gapReset clears the cross-access correlation state that must not span a
// functional-warmup gap: the prefetchers' last-address/history registers
// (see prefetch.GapResetter) and the system's own short demand history.
// Pairing a pre-gap address with the first post-gap access would fabricate
// deltas the program never exhibited — and fabricated deltas are
// overwhelmingly page-crossing, so they directly corrupt the page-cross
// rates the paper's evaluation is built on.
func (s *System) gapReset() {
	prefetch.GapReset(s.L1DPf)
	prefetch.GapReset(s.L1IPf)
	prefetch.GapReset(s.L2CPf)
	s.prevVA1, s.prevVA2 = 0, 0
	s.prevPC1, s.prevPC2 = 0, 0
}

// runSampled executes the interval-sampling schedule: the warmup phase runs
// functionally, then each plan segment fast-forwards its gap, re-warms
// fine-grained timing state over a detailed (but stats-excluded) ramp, and
// measures one detailed interval. The returned Run holds only the measured
// intervals' statistics; on error the partial statistics collected so far
// are returned alongside, mirroring the full-simulation contract.
func (s *System) runSampled(ctx context.Context, name, suite string, reader trace.Reader) (*stats.Run, error) {
	sc := s.cfg.Sample.WithDefaults()
	if err := sc.Validate(); err != nil {
		return nil, &RunError{Workload: name, Stage: "setup", Err: err}
	}
	if sc.Seed == 0 {
		sc.Seed = sample.SeedFromName(name)
	}
	pipe := s.newWarmPipe(s.cfg.Core.ReplayOnEnd)
	defer pipe.stop()

	if s.cfg.WarmupInstrs > 0 {
		if _, err := pipe.warm(ctx, reader, s.cfg.WarmupInstrs); err != nil {
			return nil, &RunError{Workload: name, Stage: "warmup", Err: err}
		}
		s.gapReset()
		s.ResetStats()
	}

	// excluded accumulates the ramps' counters; before and after bracket
	// one ramp and are reused, so a run's allocations do not grow with its
	// segment count.
	excluded, before, after := &stats.Run{}, &stats.Run{}, &stats.Run{}
	for _, seg := range sc.Plan(s.cfg.SimInstrs) {
		s.counters.sampleSegments++
		ended := false
		if seg.Warm > 0 {
			var err error
			if ended, err = pipe.warm(ctx, reader, seg.Warm); err != nil {
				return s.collectSampled(name, suite, excluded), &RunError{Workload: name, Stage: "measure", Err: err}
			}
			s.gapReset()
			s.counters.sampleWarmInstrs += seg.Warm
		}
		if seg.Ramp > 0 {
			s.collectInto(before, name, suite)
			s.Core.Attach(reader, seg.Ramp)
			if err := s.Run(ctx); err != nil {
				return s.collectSampled(name, suite, excluded), &RunError{Workload: name, Stage: runStage("measure", err), Err: err}
			}
			s.collectInto(after, name, suite)
			stats.AddDelta(excluded, after, before)
		}
		s.Core.Attach(reader, seg.Measure)
		if err := s.Run(ctx); err != nil {
			return s.collectSampled(name, suite, excluded), &RunError{Workload: name, Stage: runStage("measure", err), Err: err}
		}
		s.counters.sampleMeasuredInstrs += seg.Measure
		if ended {
			break // trace exhausted without replay: nothing left to sample
		}
	}
	return s.collectSampled(name, suite, excluded), nil
}

// collectSampled gathers the current statistics and removes the detailed
// ramps' contribution, leaving only the measured intervals.
func (s *System) collectSampled(name, suite string, excluded *stats.Run) *stats.Run {
	run := s.Collect(name, suite)
	stats.Sub(run, excluded)
	return run
}
