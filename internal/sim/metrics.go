package sim

import "repro/internal/metrics"

// simCounters is the sim layer's own accounting. Prefetch-path trains and
// candidate production live here because the engines are address-stream
// transducers with no issue authority; the sample fields count the
// sampling schedule's segments and instructions. ResetStats zeroes them
// with the components' statistics.
type simCounters struct {
	l1dTrains, l1dCandidates     uint64
	l1iCandidates, l2cCandidates uint64
	epochs                       uint64

	sampleSegments, sampleWarmInstrs, sampleMeasuredInstrs uint64
}

// registerMetrics builds the system's unified metrics registry: every
// hardware component enters it as one view source under a stable
// hierarchical prefix (plus the histograms it observes), and the sim layer
// adds its own view: the prefetch-path accounting it alone can see and the
// cross-component gauges (cycle-aware MSHR/walk occupancy). Nothing is
// named or sampled until the registry is read.
//
// private is false for cores of a multi-core system, whose shared LLC and
// DRAM belong to the machine, not to any one core's registry.
func (s *System) registerMetrics(private bool) {
	r := metrics.NewRegistry()
	s.Metrics = r

	r.Source("core", s.Core)
	s.L1I.RegisterMetrics(r, "l1i")
	s.L1D.RegisterMetrics(r, "l1d")
	s.L2C.RegisterMetrics(r, "l2c")
	if private {
		s.LLC.RegisterMetrics(r, "llc")
		s.DRAM.RegisterMetrics(r, "dram")
	}
	r.Source("dtlb", s.MMU.DTLB)
	r.Source("itlb", s.MMU.ITLB)
	r.Source("stlb", s.MMU.STLB)
	s.MMU.PTW.RegisterMetrics(r, "ptw")

	r.Source("", metrics.SourceFunc(s.emitMetrics))
	s.mDegreeHist = r.Histogram("prefetch.l1d.degree", []uint64{0, 1, 2, 3, 4, 8, 16})
	// The FDP throttle and filter-backed page-cross policies (FilterPolicy
	// through its embedded *core.Filter) export their own state.
	if src, ok := s.L1DPf.(metrics.Source); ok {
		r.Source("prefetch.l1d.fdp", src)
	}
	if src, ok := s.Policy.(metrics.Source); ok {
		r.Source("filter", src)
	}
	if s.Tracer != nil {
		r.Source("trace", s.Tracer)
	}
}

// emitMetrics is the sim layer's view, under full names: its counters, then
// the cycle-aware occupancy gauges the watchdog's stall snapshot reads (the
// components cannot know the current core cycle, so the sim layer reads it
// for them). The sample counters exist only in a sampled system, so
// full-simulation snapshots are byte-identical with and without the
// sampling subsystem compiled in.
func (s *System) emitMetrics(emit metrics.Emit) {
	const c, g = metrics.KindCounter, metrics.KindGauge
	n := &s.counters
	emit("prefetch.l1d.trains", c, n.l1dTrains)
	emit("prefetch.l1d.candidates", c, n.l1dCandidates)
	emit("prefetch.l1i.candidates", c, n.l1iCandidates)
	emit("prefetch.l2c.candidates", c, n.l2cCandidates)
	emit("sim.epochs", c, n.epochs)
	if s.cfg.Sample.Enabled {
		emit("sample.segments", c, n.sampleSegments)
		emit("sample.warm_instrs", c, n.sampleWarmInstrs)
		emit("sample.measured_instrs", c, n.sampleMeasuredInstrs)
	}
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
