package sim

import (
	"repro/internal/metrics"
	"repro/internal/prefetch"
)

// registerMetrics builds the system's unified metrics registry: every
// hardware component registers one view source under a stable hierarchical
// prefix (plus the histograms it observes), and the sim layer adds the
// cross-component gauges (cycle-aware MSHR/walk occupancy) and the
// prefetch-path accounting it alone can see. Nothing is named or sampled
// until the registry is read.
//
// private is false for cores of a multi-core system, whose shared LLC and
// DRAM belong to the machine, not to any one core's registry.
func (s *System) registerMetrics(private bool) {
	r := metrics.NewRegistry()
	s.Metrics = r

	s.Core.RegisterMetrics(r, "core")
	s.L1I.RegisterMetrics(r, "l1i")
	s.L1D.RegisterMetrics(r, "l1d")
	s.L2C.RegisterMetrics(r, "l2c")
	if private {
		s.LLC.RegisterMetrics(r, "llc")
		s.DRAM.RegisterMetrics(r, "dram")
	}
	s.MMU.RegisterMetrics(r)

	r.Source("", metrics.SourceFunc(s.emitOccupancy))

	// Prefetch-path accounting lives in the sim layer because the engines
	// are address-stream transducers with no issue authority: trains,
	// candidate production and the per-train issue degree (fill level).
	s.mL1DTrains = r.Counter("prefetch.l1d.trains")
	s.mL1DCandidates = r.Counter("prefetch.l1d.candidates")
	s.mL1ICandidates = r.Counter("prefetch.l1i.candidates")
	s.mL2CCandidates = r.Counter("prefetch.l2c.candidates")
	s.mDegreeHist = r.MustHistogram("prefetch.l1d.degree", []uint64{0, 1, 2, 3, 4, 8, 16})
	if src, ok := s.L1DPf.(prefetch.MetricSource); ok {
		src.RegisterMetrics(r, "prefetch.l1d.fdp")
	}

	// The page-cross policy: filter-backed policies expose their decision
	// and training counters plus live threshold state.
	if src, ok := s.Policy.(interface {
		RegisterMetrics(*metrics.Registry, string)
	}); ok {
		src.RegisterMetrics(r, "filter")
	}

	s.mEpochs = r.Counter("sim.epochs")
	if s.cfg.Sample.Enabled {
		s.mSampleSegments = r.Counter("sample.segments")
		s.mSampleWarmInstrs = r.Counter("sample.warm_instrs")
		s.mSampleMeasuredInstrs = r.Counter("sample.measured_instrs")
	}
	if s.Tracer != nil {
		s.Tracer.RegisterMetrics(r, "trace")
	}
}

// emitOccupancy reports the cycle-aware occupancy gauges under their full
// names: the components cannot know the current core cycle, so the sim
// layer reads it for them. These are the fields the watchdog's stall
// snapshot reads.
func (s *System) emitOccupancy(emit metrics.Emit) {
	const g = metrics.KindGauge
	cycle := s.Core.Cycle()
	emit("l1d.mshr_inflight", g, uint64(s.L1D.OutstandingMisses(cycle)))
	emit("l2c.mshr_inflight", g, uint64(s.L2C.OutstandingMisses(cycle)))
	emit("llc.mshr_inflight", g, uint64(s.LLC.OutstandingMisses(cycle)))
	emit("ptw.inflight", g, uint64(s.MMU.PTW.Inflight(cycle)))
}

// Snapshot exports the system's complete metric state: every component's
// counters, gauges and histograms, stable-ordered and deterministic for a
// given seed and configuration. It is the payload of -metrics-out, of the
// golden-stats regression suite, and (in reduced form) of the watchdog's
// stall diagnostics.
func (s *System) Snapshot() metrics.Snapshot { return s.Metrics.Snapshot() }

// StallSnapshot captures the forward-progress diagnostics — ROB head, MSHR
// occupancy per level, in-flight page walks — by reading the unified
// registry, so the watchdog's StallError and -metrics-out report through
// the same counters.
func (s *System) StallSnapshot() StallSnapshot {
	v := func(name string) uint64 {
		x, _ := s.Metrics.Value(name)
		return x
	}
	return StallSnapshot{
		Cycle:           v("core.cycle"),
		Retired:         v("core.retired_total"),
		LastRetireCycle: v("core.last_retire_cycle"),
		ROBOccupancy:    int(v("core.rob_occupancy")),
		ROBSize:         int(v("core.rob_size")),
		ROBHeadPC:       v("core.rob_head_pc"),
		ROBHeadReady:    v("core.rob_head_ready"),
		L1DMSHRs:        int(v("l1d.mshr_inflight")),
		L2CMSHRs:        int(v("l2c.mshr_inflight")),
		LLCMSHRs:        int(v("llc.mshr_inflight")),
		InflightWalks:   int(v("ptw.inflight")),
	}
}
