// Package ptw implements the hardware page-table walker of Table IV: a
// 5-level radix walk with split page-structure caches (one small
// fully-associative cache per non-leaf level), walk reads issued as
// physical memory references through the cache hierarchy (so walks enjoy
// cache locality and pollute caches, both of which the paper's analysis
// depends on), variable walk latency, and merging of concurrent walks to
// the same page. Walks triggered on behalf of page-cross prefetches are
// tagged speculative (§III-A step D).
package ptw

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/vmem"
)

// CacheLevel is the dependency the walker issues its page-table reads into.
type CacheLevel = cache.Level

// Config sizes the walker.
type Config struct {
	// PSCEntries holds the entry count of the page-structure cache for
	// each non-leaf level, indexed by vmem level (PML5..PD). Table IV:
	// L5:1, L4:2, L3:8, L2:32.
	PSCEntries [vmem.LevelPT]int
	// PSCLatency is the (parallel) PSC lookup latency in cycles.
	PSCLatency uint64
	// StepLatency is the fixed walker overhead per level read, on top of
	// the memory access itself.
	StepLatency uint64
	// MaxInflight bounds concurrent walks; further walks queue.
	MaxInflight int
}

// DefaultConfig matches Table IV.
func DefaultConfig() Config {
	return Config{
		PSCEntries:  [vmem.LevelPT]int{1, 2, 8, 32},
		PSCLatency:  1,
		StepLatency: 1,
		MaxInflight: 8,
	}
}

// Validate checks structural parameters.
func (c Config) Validate() error {
	for l, n := range c.PSCEntries {
		if n <= 0 {
			return fmt.Errorf("ptw: PSC level %s has %d entries", vmem.LevelName(l), n)
		}
	}
	if c.MaxInflight <= 0 {
		return fmt.Errorf("ptw: MaxInflight %d must be positive", c.MaxInflight)
	}
	return nil
}

// psc is one fully-associative page-structure cache of upper-level entries
// (1–32 per level). A hit at level l means the walker already knows the entry
// read at level l and resumes at l+1. At these capacities a linear scan over
// two packed arrays beats any map: lookup is a handful of contiguous word
// compares, and LRU eviction is the same scan over the stamp array.
type psc struct {
	tags   []uint64 // valid entries in [0, len); invalidPSCTag marks empty slots
	stamps []uint64 // LRU stamp per slot, parallel to tags
	clock  uint64
}

// invalidPSCTag marks an empty PSC slot. No reachable tag collides with it:
// tags are VA bits shifted right by at least PageBits, so the top bits are
// always zero.
const invalidPSCTag = ^uint64(0)

func newPSC(capacity int) *psc {
	p := &psc{tags: make([]uint64, capacity), stamps: make([]uint64, capacity)}
	for i := range p.tags {
		p.tags[i] = invalidPSCTag
	}
	return p
}

// tagFor derives the PSC tag at the given level: the VA bits that select
// the entries from the root down to and including that level.
func tagFor(va mem.VAddr, level int) uint64 {
	shift := mem.PageBits + 9*(vmem.NumLevels-1-level)
	return uint64(va) >> shift
}

func (p *psc) lookup(tag uint64) bool {
	for i, t := range p.tags {
		if t == tag {
			p.clock++
			p.stamps[i] = p.clock
			return true
		}
	}
	return false
}

func (p *psc) insert(tag uint64) {
	victim := 0
	var oldest uint64 = ^uint64(0)
	for i, t := range p.tags {
		if t == tag {
			victim = i // refresh the resident entry in place
			break
		}
		if p.stamps[i] < oldest {
			oldest = p.stamps[i]
			victim = i
		}
	}
	p.clock++
	p.tags[victim] = tag
	p.stamps[victim] = p.clock
}

// inflightWalk is one entry of the walk file: a walk in flight. The page it
// translates is kept in the parallel packed row Walker.walkVPNs.
type inflightWalk struct {
	ready uint64
	tr    vmem.Translation
}

// Walker is the hardware page-table walker for one core.
type Walker struct {
	cfg   Config
	as    *vmem.AddressSpace
	level cache.Level // where walk reads are issued (the L1D, per ChampSim)
	pscs  [vmem.LevelPT]*psc

	// walks is the walk file, allocated once at MaxInflight: one value entry
	// per walk in flight, with walkVPNs its packed row of 4K VPNs, so merging,
	// retiring and the walker-full search each read at most MaxInflight entries.
	walks    []inflightWalk
	walkVPNs []uint64
	// gcCycle is the cycle of the last gc: every walk ready by then has
	// been retired, so one still in the file leaked past it.
	gcCycle uint64
	Stats   *stats.PTWStats

	// stepBuf and stepReq are per-walk scratch: the step list is rebuilt
	// into one reusable buffer and every serialized page-table read goes
	// through one reusable request (the cache consumes it synchronously).
	stepBuf []vmem.WalkStep
	stepReq cache.Request

	// depthHist samples the number of page-table reads each walk issued to
	// memory (0 when the PSCs covered everything but the leaf was merged);
	// nil until the walker is registered in a metrics registry.
	depthHist *metrics.Histogram
	// Trace, when non-nil, receives walk-begin/walk-end events; nil (the
	// production default) costs one branch per walk.
	Trace *metrics.Tracer
}

// New builds a walker that resolves translations from as and issues its
// page-table reads into level.
func New(cfg Config, as *vmem.AddressSpace, level cache.Level) (*Walker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if as == nil || level == nil {
		return nil, fmt.Errorf("ptw: nil address space or memory level")
	}
	w := &Walker{
		cfg:      cfg,
		as:       as,
		level:    level,
		walks:    make([]inflightWalk, 0, cfg.MaxInflight),
		walkVPNs: make([]uint64, 0, cfg.MaxInflight),
		Stats:    &stats.PTWStats{},
	}
	for l := range w.pscs {
		w.pscs[l] = newPSC(cfg.PSCEntries[l])
	}
	return w, nil
}

// gc retires finished walks, swap-removing each from the walk file.
func (w *Walker) gc(cycle uint64) {
	w.gcCycle = cycle
	for i := 0; i < len(w.walks); {
		if w.walks[i].ready > cycle {
			i++
			continue
		}
		last := len(w.walks) - 1
		w.walks[i], w.walkVPNs[i] = w.walks[last], w.walkVPNs[last]
		w.walks, w.walkVPNs = w.walks[:last], w.walkVPNs[:last]
	}
}

// Inflight reports the number of walks outstanding at the given cycle.
func (w *Walker) Inflight(cycle uint64) int {
	w.gc(cycle)
	return len(w.walks)
}

// Walk translates va, returning the translation and the cycle at which it
// is available. speculative marks walks triggered by page-cross prefetches.
// Concurrent walks for the same page merge; the walker's MSHR-like inflight
// limit delays walks beyond capacity.
func (w *Walker) Walk(va mem.VAddr, cycle uint64, speculative bool) (vmem.Translation, uint64) {
	w.gc(cycle)

	vpn := va.PageID()
	for i, v := range w.walkVPNs {
		if v == vpn {
			// Merge with the walk already in flight.
			return w.walks[i].tr, w.walks[i].ready
		}
	}

	var spec uint64
	if speculative {
		w.Stats.SpeculativeWalks++
		spec = 1
	} else {
		w.Stats.Walks++
	}
	w.Trace.Emit(cycle, metrics.EvWalkBegin, vpn, spec)

	start := cycle
	if len(w.walks) >= w.cfg.MaxInflight {
		earliest := ^uint64(0)
		for _, fl := range w.walks {
			if fl.ready < earliest {
				earliest = fl.ready
			}
		}
		start = earliest
		w.gc(start)
	}

	steps, tr, firstLevel := w.descend(va)
	if firstLevel > 0 {
		w.Stats.PSCHits++
	}
	// Serialised reads for the remaining levels, each through the cache
	// hierarchy (the next entry address depends on the previous read).
	ready := start + w.cfg.PSCLatency
	for i := firstLevel; i < len(steps); i++ {
		w.stepReq = cache.Request{PA: steps[i].PA, Type: mem.PTWRead}
		ready = w.level.Access(&w.stepReq, ready+w.cfg.StepLatency)
		w.Stats.WalkMemAccesses++
		if i < len(steps)-1 {
			w.pscs[steps[i].Level].insert(tagFor(va, steps[i].Level))
		}
	}
	w.depthHist.Observe(uint64(len(steps) - firstLevel))
	w.Trace.Emit(cycle, metrics.EvWalkEnd, vpn, ready)

	w.walks = append(w.walks, inflightWalk{ready: ready, tr: tr})
	w.walkVPNs = append(w.walkVPNs, vpn)
	return tr, ready
}

// WarmWalk functionally resolves va, updating exactly the walker state a
// detailed walk would touch — the PSCs — with no statistics, no timing and no
// walk-file entry. It appends the physical addresses of the page-table reads
// the walk would issue, in order, to reads and returns them: the caller
// installs those lines, since on translation-intensive workloads walks that
// miss to DRAM dominate the post-gap transient of the interval sampler's
// functional-warmup gaps.
func (w *Walker) WarmWalk(va mem.VAddr, reads []mem.PAddr) (vmem.Translation, []mem.PAddr) {
	steps, tr, firstLevel := w.descend(va)
	for i := firstLevel; i < len(steps); i++ {
		reads = append(reads, steps[i].PA)
		if i < len(steps)-1 {
			w.pscs[steps[i].Level].insert(tagFor(va, steps[i].Level))
		}
	}
	return tr, reads
}

// descend resolves va into the reusable step list and probes all PSCs in
// parallel: the deepest hit decides firstLevel, the first step the walk must
// still read. Leaf reads (PT level, or PD level for 2MB leaves) are never
// served by a PSC.
func (w *Walker) descend(va mem.VAddr) (steps []vmem.WalkStep, tr vmem.Translation, firstLevel int) {
	steps, tr = w.as.WalkInto(w.stepBuf, va)
	w.stepBuf = steps
	for i := len(steps) - 2; i >= 0; i-- {
		if w.pscs[steps[i].Level].lookup(tagFor(va, steps[i].Level)) {
			return steps, tr, i + 1
		}
	}
	return steps, tr, 0
}

// CheckInvariants verifies walker structural invariants at the given cycle:
// the last gc retired every walk it should have, outstanding walks never
// exceed MaxInflight once finished walks are retired, and no
// page-structure cache holds a tag twice. Returns the first violation, nil
// when clean.
func (w *Walker) CheckInvariants(cycle uint64) error {
	// Scan before this check's own gc, which would retire a leaked walk
	// and hide it.
	for i, fl := range w.walks {
		if fl.ready <= w.gcCycle {
			return fmt.Errorf("ptw-walk-leak: walk for vpn %#x completed at cycle %d but was not retired at cycle %d", w.walkVPNs[i], fl.ready, w.gcCycle)
		}
	}
	w.gc(cycle)
	if got := len(w.walks); got > w.cfg.MaxInflight {
		return fmt.Errorf("ptw-inflight-overflow: %d walks outstanding with MaxInflight %d", got, w.cfg.MaxInflight)
	}
	for l, p := range w.pscs {
		// Capacity overflow is structurally impossible with the fixed slot
		// array; the invariant is instead that no valid tag is cached twice
		// (a duplicate would make lookup/insert LRU state diverge silently).
		for i, t := range p.tags {
			if t == invalidPSCTag {
				continue
			}
			for j := i + 1; j < len(p.tags); j++ {
				if p.tags[j] == t {
					return fmt.Errorf("psc-duplicate: %s PSC caches tag %#x in slots %d and %d", vmem.LevelName(l), t, i, j)
				}
			}
		}
	}
	return nil
}

// RegisterMetrics exports the walker's statistics and its walk-depth
// distribution (memory reads per walk, after PSC skipping) into a metrics
// registry under prefix ("ptw").
func (w *Walker) RegisterMetrics(r *metrics.Registry, prefix string) {
	r.Source(prefix, w.Stats)
	w.depthHist = r.Histogram(prefix+".walk_depth", []uint64{0, 1, 2, 3, 4, 5})
}
