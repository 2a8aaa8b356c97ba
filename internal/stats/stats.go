// Package stats collects and reduces the simulation statistics the paper
// reports: MPKI for each cache/TLB level, IPC, prefetch coverage and
// accuracy, useful/useless page-cross prefetch counts, and the geometric-mean
// and weighted-speedup reductions used in the evaluation.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// CacheStats counts the events at one cache or TLB level.
type CacheStats struct {
	DemandAccesses uint64 // demand loads/stores/fetches looked up
	DemandHits     uint64
	DemandMisses   uint64

	PrefetchIssued uint64 // prefetch fills requested at this level
	PrefetchHits   uint64 // prefetches that found the block already present
	PrefetchFills  uint64 // prefetched blocks actually installed

	UsefulPrefetches  uint64 // prefetched blocks that served >=1 demand hit
	UselessPrefetches uint64 // prefetched blocks evicted without any hit

	Evictions  uint64
	Writebacks uint64

	// DemandLatencySum accumulates (ready − request cycle) over demand
	// accesses, for mean-latency diagnostics.
	DemandLatencySum uint64

	// MSHR pressure: demand misses that had to wait for a free MSHR, and
	// prefetches dropped because none was free.
	MSHRFullWaits    uint64
	MSHRDropPrefetch uint64

	// Page-cross accounting (set on the level the filter protects, L1D).
	PGCIssued  uint64 // page-cross prefetches issued past the filter
	PGCUseful  uint64 // page-cross prefetched blocks with >=1 demand hit
	PGCUseless uint64 // page-cross prefetched blocks evicted unused
	PGCDropped uint64 // page-cross prefetches discarded by the policy/filter
}

// MissRate returns demand misses / demand accesses in [0,1].
func (s *CacheStats) MissRate() float64 {
	if s.DemandAccesses == 0 {
		return 0
	}
	return float64(s.DemandMisses) / float64(s.DemandAccesses)
}

// MPKI returns demand misses per kilo-instruction.
func (s *CacheStats) MPKI(instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(s.DemandMisses) * 1000 / float64(instructions)
}

// PrefetchAccuracy returns useful / (useful + useless) prefetched blocks.
func (s *CacheStats) PrefetchAccuracy() float64 {
	tot := s.UsefulPrefetches + s.UselessPrefetches
	if tot == 0 {
		return 0
	}
	return float64(s.UsefulPrefetches) / float64(tot)
}

// PGCAccuracy returns the fraction of issued page-cross prefetches that were
// useful, over all classified (useful+useless) page-cross prefetches.
func (s *CacheStats) PGCAccuracy() float64 {
	tot := s.PGCUseful + s.PGCUseless
	if tot == 0 {
		return 0
	}
	return float64(s.PGCUseful) / float64(tot)
}

// CoreStats counts the events at the core.
type CoreStats struct {
	Cycles       uint64
	Instructions uint64
	Loads        uint64
	Stores       uint64

	ROBStallCycles uint64 // cycles retire was blocked by an incomplete head
	ROBOccupancy   uint64 // accumulated occupancy (divide by cycles for mean)

	Branches    uint64
	Mispredicts uint64
}

// IPC returns retired instructions per cycle.
func (s *CoreStats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// PTWStats counts page-walk activity.
type PTWStats struct {
	Walks            uint64 // demand walks
	SpeculativeWalks uint64 // walks triggered by page-cross prefetches
	WalkMemAccesses  uint64 // page-table reads that reached the hierarchy
	PSCHits          uint64 // page-structure-cache hits (levels skipped)
}

// Run aggregates everything one simulation produces.
type Run struct {
	Workload string
	Suite    string

	Core CoreStats
	L1I  CacheStats
	L1D  CacheStats
	L2C  CacheStats
	LLC  CacheStats
	DTLB CacheStats
	ITLB CacheStats
	STLB CacheStats
	PTW  PTWStats
}

// IPC is a convenience accessor.
func (r *Run) IPC() float64 { return r.Core.IPC() }

// MPKI returns the named structure's demand MPKI. Recognised names:
// "l1d", "l1i", "l2c", "llc", "dtlb", "itlb", "stlb".
func (r *Run) MPKI(structure string) float64 {
	s := r.Cache(structure)
	if s == nil {
		return math.NaN()
	}
	return s.MPKI(r.Core.Instructions)
}

// Cache returns the named structure's statistics (the names MPKI
// recognises), nil for any other name.
func (r *Run) Cache(structure string) *CacheStats {
	switch structure {
	case "l1d":
		return &r.L1D
	case "l1i":
		return &r.L1I
	case "l2c":
		return &r.L2C
	case "llc":
		return &r.LLC
	case "dtlb":
		return &r.DTLB
	case "itlb":
		return &r.ITLB
	case "stlb":
		return &r.STLB
	}
	return nil
}

// Coverage returns the fraction of the baseline's demand L1D misses removed
// in this run: (baseMisses - misses) / baseMisses.
func Coverage(run, baseline *Run) float64 {
	if baseline.L1D.DemandMisses == 0 {
		return 0
	}
	saved := float64(baseline.L1D.DemandMisses) - float64(run.L1D.DemandMisses)
	return saved / float64(baseline.L1D.DemandMisses)
}

// PGCPerKiloInstr returns (useful, useless) page-cross prefetches per kilo
// instruction, the metric of the paper's Figure 13.
func (r *Run) PGCPerKiloInstr() (useful, useless float64) {
	if r.Core.Instructions == 0 {
		return 0, 0
	}
	k := 1000 / float64(r.Core.Instructions)
	return float64(r.L1D.PGCUseful) * k, float64(r.L1D.PGCUseless) * k
}

// Speedup returns run IPC / baseline IPC.
func Speedup(run, baseline *Run) float64 {
	b := baseline.IPC()
	if b == 0 {
		return 0
	}
	return run.IPC() / b
}

// Geomean returns the geometric mean of xs. Non-positive entries are
// rejected with an error because a geomean over speedups must be positive.
func Geomean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: geomean of empty slice")
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0, fmt.Errorf("stats: geomean requires positive values, got %g", x)
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

// WeightedGeomean computes the weighted geometric mean: exp(Σ w·ln x / Σ w).
func WeightedGeomean(xs, weights []float64) (float64, error) {
	if len(xs) == 0 || len(xs) != len(weights) {
		return 0, fmt.Errorf("stats: weighted geomean needs matching non-empty slices")
	}
	var sum, wsum float64
	for i, x := range xs {
		if x <= 0 {
			return 0, fmt.Errorf("stats: weighted geomean requires positive values, got %g", x)
		}
		if weights[i] < 0 {
			return 0, fmt.Errorf("stats: negative weight %g", weights[i])
		}
		sum += weights[i] * math.Log(x)
		wsum += weights[i]
	}
	if wsum == 0 {
		return 0, fmt.Errorf("stats: zero total weight")
	}
	return math.Exp(sum / wsum), nil
}

// WeightedSpeedup implements the multi-core metric of §IV-A2: the sum over
// cores of IPC_multicore/IPC_isolation, normalised by the same sum for the
// baseline system.
func WeightedSpeedup(multi, isolation, baseMulti, baseIsolation []float64) (float64, error) {
	n := len(multi)
	if n == 0 || len(isolation) != n || len(baseMulti) != n || len(baseIsolation) != n {
		return 0, fmt.Errorf("stats: weighted speedup needs four equal-length non-empty slices")
	}
	num, den := 0.0, 0.0
	for i := 0; i < n; i++ {
		if isolation[i] <= 0 || baseIsolation[i] <= 0 {
			return 0, fmt.Errorf("stats: isolation IPC must be positive")
		}
		num += multi[i] / isolation[i]
		den += baseMulti[i] / baseIsolation[i]
	}
	if den == 0 {
		return 0, fmt.Errorf("stats: baseline weighted IPC is zero")
	}
	return num / den, nil
}

// Percentile returns the p-th percentile (0..100) of xs by linear
// interpolation; xs need not be sorted.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}
