package stats

import "repro/internal/metrics"

// EmitMetrics reports every field of the cache/TLB statistics block as a
// counter. The struct stays the component's working storage; a registry
// that holds it as a view source (metrics.Registry.Source) samples it only
// when read, so the hot path is unchanged.
func (s *CacheStats) EmitMetrics(emit metrics.Emit) {
	const c = metrics.KindCounter
	emit("demand_accesses", c, s.DemandAccesses)
	emit("demand_hits", c, s.DemandHits)
	emit("demand_misses", c, s.DemandMisses)
	emit("prefetch_issued", c, s.PrefetchIssued)
	emit("prefetch_hits", c, s.PrefetchHits)
	emit("prefetch_fills", c, s.PrefetchFills)
	emit("useful_prefetches", c, s.UsefulPrefetches)
	emit("useless_prefetches", c, s.UselessPrefetches)
	emit("evictions", c, s.Evictions)
	emit("writebacks", c, s.Writebacks)
	emit("demand_latency_sum", c, s.DemandLatencySum)
	emit("mshr_full_waits", c, s.MSHRFullWaits)
	emit("mshr_drop_prefetch", c, s.MSHRDropPrefetch)
	emit("pgc_issued", c, s.PGCIssued)
	emit("pgc_useful", c, s.PGCUseful)
	emit("pgc_useless", c, s.PGCUseless)
	emit("pgc_dropped", c, s.PGCDropped)
}

// EmitMetrics reports every field of the core statistics block as a
// counter.
func (s *CoreStats) EmitMetrics(emit metrics.Emit) {
	const c = metrics.KindCounter
	emit("cycles", c, s.Cycles)
	emit("instructions", c, s.Instructions)
	emit("loads", c, s.Loads)
	emit("stores", c, s.Stores)
	emit("rob_stall_cycles", c, s.ROBStallCycles)
	emit("rob_occupancy_sum", c, s.ROBOccupancy)
	emit("branches", c, s.Branches)
	emit("mispredicts", c, s.Mispredicts)
}

// EmitMetrics reports every field of the page-walker statistics block as a
// counter.
func (s *PTWStats) EmitMetrics(emit metrics.Emit) {
	const c = metrics.KindCounter
	emit("walks", c, s.Walks)
	emit("speculative_walks", c, s.SpeculativeWalks)
	emit("walk_mem_accesses", c, s.WalkMemAccesses)
	emit("psc_hits", c, s.PSCHits)
}
