// Package cache implements the set-associative, write-back caches of the
// simulated 3-level hierarchy (L1I, L1D, L2C, LLC).
//
// Timing model. The simulator resolves every access synchronously through
// the hierarchy and returns the cycle at which data becomes available; cache
// state (fills, evictions, LRU) updates immediately. MSHRs bound the number
// of outstanding misses per level and model prefetch timeliness: a demand
// access that reaches a line whose fill is still in flight merges into the
// MSHR and completes when the fill completes, so a late prefetch still saves
// part of the miss latency — exactly the effect the paper's timeliness
// discussion depends on.
//
// Every block carries a prefetch bit and the paper's Page-Cross Bit (PCB,
// §III-C2), and the cache exposes fill/eviction/demand-hit hooks so the
// page-cross filter can train on L1D events without the cache knowing the
// filter exists.
package cache

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// Level is anything that can serve a physical-address access: a lower cache
// or the DRAM controller.
type Level interface {
	// Access performs the access at the given cycle and returns the cycle
	// at which the data is available to the requester.
	Access(req *Request, cycle uint64) (ready uint64)
}

// Request is the physical-side request travelling down the hierarchy.
type Request struct {
	PA   mem.PAddr
	VA   mem.VAddr // valid at the L1s (virtually-indexed levels); informational below
	PC   mem.VAddr
	Type mem.AccessType

	// Prefetch metadata, used by the L1D hooks.
	IsPageCross bool
	Delta       int64
}

// Block is one cache line's metadata. Its tag lives only in the packed tags
// row of the cache; the block keeps the full line address instead.
type Block struct {
	pa    mem.PAddr // line-aligned physical address
	issue uint64    // cycle the fill request was issued
	ready uint64    // fill-completion cycle

	valid     bool
	dirty     bool
	prefetch  bool // filled by a prefetch, cleared design-wise never (stat kept until evict)
	pageCross bool // the paper's PCB bit
	servedHit bool // served >=1 demand access since fill
}

// EvictInfo describes an evicted block to the eviction hook.
type EvictInfo struct {
	PA        mem.PAddr
	Prefetch  bool
	PageCross bool
	ServedHit bool
	Dirty     bool
}

// HitInfo describes a demand hit to the demand-hit hook.
type HitInfo struct {
	PA        mem.PAddr
	VA        mem.VAddr
	PC        mem.VAddr
	Prefetch  bool
	PageCross bool
	// FirstHit is true when this is the first demand access the block
	// serves since it was filled.
	FirstHit bool
}

// ReplPolicy selects the replacement policy of a cache level.
type ReplPolicy string

// The supported replacement policies.
const (
	// ReplLRU is true least-recently-used (the Table IV default).
	ReplLRU ReplPolicy = "lru"
	// ReplSRRIP is static re-reference interval prediction with 2-bit
	// RRPVs (Jaleel et al.), a scan-resistant alternative used by the
	// replacement ablation bench.
	ReplSRRIP ReplPolicy = "srrip"
	// ReplRandom picks victims pseudo-randomly (deterministically seeded).
	ReplRandom ReplPolicy = "random"
)

// Config sizes a cache level.
type Config struct {
	Name    string
	Sets    int
	Ways    int
	Latency uint64 // hit latency in cycles
	MSHRs   int
	// Repl selects the replacement policy; empty means LRU.
	Repl ReplPolicy
}

// Validate checks structural parameters.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("cache %s: sets %d must be a positive power of two", c.Name, c.Sets)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache %s: ways %d must be positive", c.Name, c.Ways)
	}
	if c.MSHRs <= 0 {
		return fmt.Errorf("cache %s: MSHRs %d must be positive", c.Name, c.MSHRs)
	}
	switch c.Repl {
	case "", ReplLRU, ReplSRRIP, ReplRandom:
	default:
		return fmt.Errorf("cache %s: unknown replacement policy %q", c.Name, c.Repl)
	}
	return nil
}

// SizeBytes returns the capacity of the configuration.
func (c Config) SizeBytes() int { return c.Sets * c.Ways * mem.LineSize }

// mshr is one MSHR: a fill in flight at this level. The line it fetches is
// kept in the parallel packed row Cache.mshrLines.
type mshr struct {
	issue       uint64 // cycle the fill request entered this level
	ready       uint64
	pageCross   bool
	demandMerge bool // a demand access merged while in flight
	leaked      bool // fault injection: the MSHR release for this fill is lost
}

// invalidTag marks an empty way in the packed tag array. No reachable
// physical address produces it: a real tag is PA.LineID() >> log2(sets),
// far below 2^64-1 for any physical memory the simulator can configure.
const invalidTag = ^uint64(0)

// Cache is one physically-tagged cache level.
type Cache struct {
	cfg   Config
	lower Level
	sets  [][]Block
	// tags is the packed struct-of-arrays mirror of each block's tag (one
	// word per way, invalidTag for empty ways): the associative lookup scan
	// reads one contiguous row instead of striding across Block records.
	// fill, Warm and Flush keep it in exact sync with the blocks.
	tags []uint64
	// lrus is the packed replacement state (LRU stamp, or RRPV for SRRIP),
	// one word per way parallel to tags. Victim selection scans this row and
	// the tag row — two contiguous arrays — instead of striding across the
	// full Block records.
	lrus  []uint64
	clock uint64 // monotonic LRU counter
	// setShift is log2(Sets), precomputed: tag extraction runs on every
	// access at every level and must not re-derive it.
	setShift uint
	// lowerWarm is lower pre-asserted to warmable (nil when the lower level
	// cannot warm, e.g. DRAM); Warm cascades misses through it without a
	// per-call type assertion.
	lowerWarm warmable
	rng       uint64 // state for random replacement
	// missLatEWMA tracks the typical demand full-miss latency at this
	// level; the merge-usefulness test compares against it.
	missLatEWMA uint64

	// mshrHist samples MSHR occupancy once per access when the level is
	// registered in a metrics registry; nil (the unregistered state) makes
	// Observe a single branch.
	mshrHist *metrics.Histogram

	// leakEveryN, when non-zero, loses the MSHR release of every Nth
	// completed fill (fault injection: a bookkeeping leak the oracle's
	// leak-freedom invariant must catch).
	leakEveryN uint64
	gcReleases uint64

	// mshrs is the MSHR file: one value entry per fill in flight, allocated
	// once at the configured capacity. mshrLines is its packed line-ID row,
	// parallel to it, so the associative MSHR lookup scans one contiguous
	// array (as tags does for the sets). Retirement swap-removes entries;
	// only an injected leak can grow the file past its capacity.
	mshrs     []mshr
	mshrLines []uint64
	// minReady is a lower bound on the earliest completion cycle over the
	// non-leaked MSHRs (^0 when none). gcOutstanding runs on every access;
	// with this bound the common case — nothing has completed since the
	// last sweep — is one comparison.
	minReady uint64

	// lowReq is the scratch request reused for every forward to the lower
	// level (and writeback forwarding). The hierarchy is driven by a single
	// goroutine per system and the lower level consumes the request
	// synchronously, so reusing one buffer is safe and removes a heap
	// allocation per miss.
	lowReq Request

	// Stats is exported by pointer so the simulator aggregates it directly.
	Stats *stats.CacheStats

	// OnEvict fires when a valid block is evicted.
	OnEvict func(EvictInfo)
	// OnDemandHit fires when a demand access hits a resident block.
	OnDemandHit func(HitInfo)
	// OnDemandMiss fires when a demand access misses entirely (no resident
	// block and no in-flight fill).
	OnDemandMiss func(req *Request)
	// OnFill fires when a block is installed.
	OnFill func(pa mem.PAddr, prefetch, pageCross bool)
}

// New builds a cache on top of lower.
func New(cfg Config, lower Level) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if lower == nil {
		return nil, fmt.Errorf("cache %s: nil lower level", cfg.Name)
	}
	sets := make([][]Block, cfg.Sets)
	blocks := make([]Block, cfg.Sets*cfg.Ways)
	for i := range sets {
		sets[i], blocks = blocks[:cfg.Ways], blocks[cfg.Ways:]
	}
	tags := make([]uint64, cfg.Sets*cfg.Ways)
	for i := range tags {
		tags[i] = invalidTag
	}
	lw, _ := lower.(warmable)
	return &Cache{
		cfg:         cfg,
		lower:       lower,
		lowerWarm:   lw,
		sets:        sets,
		tags:        tags,
		lrus:        make([]uint64, cfg.Sets*cfg.Ways),
		setShift:    uint(log2(cfg.Sets)),
		mshrs:       make([]mshr, 0, cfg.MSHRs),
		mshrLines:   make([]uint64, 0, cfg.MSHRs),
		minReady:    ^uint64(0),
		missLatEWMA: 300, // sane prior until real misses calibrate it
		Stats:       &stats.CacheStats{},
	}, nil
}

func (c *Cache) setIndex(pa mem.PAddr) uint64 {
	return pa.LineID() & uint64(c.cfg.Sets-1)
}

func (c *Cache) tag(pa mem.PAddr) uint64 {
	return pa.LineID() >> c.setShift
}

func log2(x int) int {
	n := 0
	for x > 1 {
		x >>= 1
		n++
	}
	return n
}

// findWay scans the packed tag row of one set and returns the way holding
// tag, or -1.
func (c *Cache) findWay(si, tag uint64) int {
	base := si * uint64(c.cfg.Ways)
	for i, k := range c.tags[base : base+uint64(c.cfg.Ways)] {
		if k == tag {
			return i
		}
	}
	return -1
}

// lookup returns the resident block for pa, or nil.
func (c *Cache) lookup(pa mem.PAddr) *Block {
	si := c.setIndex(pa)
	if wi := c.findWay(si, c.tag(pa)); wi >= 0 {
		return &c.sets[si][wi]
	}
	return nil
}

// findMSHR scans the packed MSHR line row and returns the entry fetching
// line, or -1.
func (c *Cache) findMSHR(line uint64) int {
	for i, l := range c.mshrLines {
		if l == line {
			return i
		}
	}
	return -1
}

// retireMSHR frees entry i by moving the file's last entry into its slot.
func (c *Cache) retireMSHR(i int) {
	last := len(c.mshrs) - 1
	c.mshrs[i] = c.mshrs[last]
	c.mshrLines[i] = c.mshrLines[last]
	c.mshrs = c.mshrs[:last]
	c.mshrLines = c.mshrLines[:last]
}

// gcOutstanding retires completed MSHR entries. The minReady watermark makes
// the no-op case (no non-leaked fill has completed yet) a single comparison;
// the set of entries retired is identical to a full sweep, since cycle <
// minReady implies no non-leaked entry satisfies ready <= cycle. Leaked
// entries are excluded from the watermark — they never retire, and tracking
// them would force a full sweep on every access ever after.
func (c *Cache) gcOutstanding(cycle uint64) {
	if cycle < c.minReady {
		return
	}
	min := ^uint64(0)
	for i := 0; i < len(c.mshrs); {
		e := &c.mshrs[i]
		if e.leaked {
			i++
			continue
		}
		if e.ready <= cycle {
			if n := c.leakEveryN; n > 0 {
				c.gcReleases++
				if c.gcReleases%n == 0 {
					e.leaked = true // release lost: the entry stays allocated
					i++
					continue
				}
			}
			c.retireMSHR(i) // slot i now holds an unvisited entry
			continue
		}
		if e.ready < min {
			min = e.ready
		}
		i++
	}
	c.minReady = min
}

// InjectMSHRLeak makes every Nth MSHR release be lost (0 disables): the
// completed fill's entry stays allocated forever, so occupancy creeps up
// until the leak-freedom invariant trips. Fault injection for the oracle.
func (c *Cache) InjectMSHRLeak(everyN uint64) { c.leakEveryN = everyN }

// OutstandingMisses reports the number of in-flight fills at the given
// cycle; the adaptive thresholding scheme uses it as ROB/L1D pressure input.
func (c *Cache) OutstandingMisses(cycle uint64) int {
	c.gcOutstanding(cycle)
	return len(c.mshrs)
}

// Access implements Level.
func (c *Cache) Access(req *Request, cycle uint64) uint64 {
	ready := c.access(req, cycle)
	if req.Type.IsDemand() && ready > cycle {
		c.Stats.DemandLatencySum += ready - cycle
	}
	return ready
}

func (c *Cache) access(req *Request, cycle uint64) uint64 {
	c.gcOutstanding(cycle)
	c.mshrHist.Observe(uint64(len(c.mshrs)))
	demand := req.Type.IsDemand()
	if demand {
		c.Stats.DemandAccesses++
	}

	if req.Type == mem.Writeback {
		return c.accessWriteback(req, cycle)
	}

	// Resident hit. A block whose fill has not completed yet is an MSHR
	// merge: the access waits for the fill and is accounted as a miss
	// (ChampSim semantics), but usefulness tracking proceeds as for a hit
	// so that late-but-useful prefetches are credited.
	//
	// A block whose fill was ISSUED after this access's cycle is invisible:
	// the simulator processes prefetches eagerly in program order, but a
	// prefetch issued at walk-completion time must not serve (or delay) a
	// demand that arrives before it physically existed. Such a demand
	// misses and fetches independently; the overtaken prefetch is wasted.
	hitSI := c.setIndex(req.PA)
	if wi := c.findWay(hitSI, c.tag(req.PA)); wi >= 0 && cycle >= c.sets[hitSI][wi].issue {
		b := &c.sets[hitSI][wi]
		c.touch(hitSI, wi)
		ready := cycle + c.cfg.Latency
		merged := b.ready > ready
		if merged {
			ready = b.ready
		}
		if demand {
			if merged {
				c.Stats.DemandMisses++
			} else {
				c.Stats.DemandHits++
			}
			first := !b.servedHit
			if b.prefetch && first {
				c.Stats.UsefulPrefetches++
				if b.pageCross {
					c.Stats.PGCUseful++
				}
			}
			b.servedHit = true
			if req.Type == mem.Store {
				b.dirty = true
			}
			if c.OnDemandHit != nil {
				c.OnDemandHit(HitInfo{
					PA: req.PA, VA: req.VA, PC: req.PC,
					Prefetch: b.prefetch, PageCross: b.pageCross,
					FirstHit: first,
				})
			}
		} else if req.Type == mem.Prefetch {
			c.Stats.PrefetchHits++
		}
		return ready
	}

	// In-flight merge. The block was installed eagerly at miss time, so a
	// demand merging into a prefetch MSHR must update the resident block's
	// usefulness the same way a post-fill hit would (late-but-useful
	// prefetch).
	line := req.PA.LineID()
	fi := c.findMSHR(line)
	if fi >= 0 && cycle >= c.mshrs[fi].issue {
		fl := &c.mshrs[fi]
		if demand {
			c.Stats.DemandMisses++
			fl.demandMerge = true
			if b := c.lookup(req.PA); b != nil {
				if b.prefetch && !b.servedHit {
					c.Stats.UsefulPrefetches++
					if b.pageCross {
						c.Stats.PGCUseful++
					}
				}
				b.servedHit = true
				if req.Type == mem.Store {
					b.dirty = true
				}
			}
		} else if req.Type == mem.Prefetch {
			c.Stats.PrefetchHits++
		}
		ready := fl.ready
		if min := cycle + c.cfg.Latency; ready < min {
			ready = min
		}
		return ready
	}

	// Full miss.
	if demand {
		c.Stats.DemandMisses++
		if c.OnDemandMiss != nil {
			c.OnDemandMiss(req)
		}
	}
	if req.Type == mem.Prefetch && len(c.mshrs) >= c.cfg.MSHRs {
		// Prefetches are dropped when MSHRs are exhausted.
		c.Stats.MSHRDropPrefetch++
		return cycle
	}
	issue := cycle
	if len(c.mshrs) >= c.cfg.MSHRs {
		c.Stats.MSHRFullWaits++
		// Demand miss with full MSHRs: wait for the earliest completion.
		earliest := ^uint64(0)
		for i := range c.mshrs {
			if r := c.mshrs[i].ready; r < earliest {
				earliest = r
			}
		}
		issue = earliest
		c.gcOutstanding(issue)
		if fi >= 0 {
			fi = c.findMSHR(line) // retirement may have moved the entry
		}
	}

	c.lowReq = *req
	ready := c.lower.Access(&c.lowReq, issue+c.cfg.Latency)

	fl := mshr{
		issue:       issue,
		ready:       ready,
		pageCross:   req.IsPageCross && req.Type == mem.Prefetch,
		demandMerge: demand,
	}
	// A line whose fill is already in flight (issued after this access's
	// cycle) is re-issued in place, so the file never holds one line twice.
	if fi >= 0 {
		c.mshrs[fi] = fl
	} else {
		c.mshrs = append(c.mshrs, fl)
		c.mshrLines = append(c.mshrLines, line)
	}
	if ready < c.minReady {
		c.minReady = ready
	}
	if demand && ready > cycle {
		c.missLatEWMA = (c.missLatEWMA*7 + (ready - cycle)) / 8
	}
	c.fill(req, &fl, issue, ready)
	return ready
}

// touch updates replacement state on a hit.
func (c *Cache) touch(si uint64, wi int) {
	idx := si*uint64(c.cfg.Ways) + uint64(wi)
	switch c.cfg.Repl {
	case ReplSRRIP:
		c.lrus[idx] = 0 // RRPV: re-referenced soon
	case ReplRandom:
		// Random replacement keeps no reuse state.
	default: // LRU
		c.clock++
		c.lrus[idx] = c.clock
	}
}

// victimIn picks the way to replace in set si, per the configured policy.
// Validity comes from the packed tag row (invalidTag marks empty ways), so
// the scan never dereferences the Block records.
func (c *Cache) victimIn(si uint64) int {
	ways := uint64(c.cfg.Ways)
	keys := c.tags[si*ways : si*ways+ways]
	for i, k := range keys {
		if k == invalidTag {
			return i
		}
	}
	return c.victimFull(si)
}

// victimFull picks the replacement victim in set si assuming every way is
// valid (the caller has already checked the tag row for empty ways).
func (c *Cache) victimFull(si uint64) int {
	ways := uint64(c.cfg.Ways)
	lrus := c.lrus[si*ways : si*ways+ways]
	switch c.cfg.Repl {
	case ReplSRRIP:
		// Find an RRPV-3 block, aging the set until one exists.
		for {
			for i, v := range lrus {
				if v >= 3 {
					return i
				}
			}
			for i := range lrus {
				lrus[i]++
			}
		}
	case ReplRandom:
		c.rng = c.rng*6364136223846793005 + 1442695040888963407
		return int((c.rng >> 33) % ways)
	default: // LRU
		victim := 0
		var oldest uint64 = ^uint64(0)
		for i, v := range lrus {
			if v < oldest {
				oldest = v
				victim = i
			}
		}
		return victim
	}
}

// fillStamp is the replacement state of a freshly installed block.
func (c *Cache) fillStamp() uint64 {
	switch c.cfg.Repl {
	case ReplSRRIP:
		return 2 // RRPV: long re-reference interval
	case ReplRandom:
		return 0
	default:
		c.clock++
		return c.clock
	}
}

// fill installs the line, evicting a victim if needed. When the same line
// is already resident (a demand overtook a not-yet-issued prefetch, or vice
// versa), the existing block is replaced in place so a set never holds two
// copies of one tag.
func (c *Cache) fill(req *Request, fl *mshr, issue, ready uint64) {
	si := c.setIndex(req.PA)
	set := c.sets[si]
	tag := c.tag(req.PA)
	wi := c.findWay(si, tag)
	if wi < 0 {
		wi = c.victimIn(si)
	}
	b := &set[wi]
	if b.valid {
		c.evict(b)
	}
	isPrefetch := req.Type == mem.Prefetch
	*b = Block{
		valid:     true,
		dirty:     req.Type == mem.Store,
		pa:        req.PA.Line(),
		issue:     issue,
		ready:     ready,
		prefetch:  isPrefetch,
		pageCross: fl.pageCross,
		servedHit: fl.demandMerge && !isPrefetch,
	}
	c.tags[si*uint64(c.cfg.Ways)+uint64(wi)] = tag
	c.lrus[si*uint64(c.cfg.Ways)+uint64(wi)] = c.fillStamp()
	if isPrefetch {
		c.Stats.PrefetchFills++
		if fl.pageCross {
			c.Stats.PGCIssued++
		}
	}
	if c.OnFill != nil {
		c.OnFill(req.PA, isPrefetch, fl.pageCross)
	}
}

// evict notifies hooks, accounts stats and issues a writeback for dirty data.
func (c *Cache) evict(b *Block) {
	c.Stats.Evictions++
	if b.prefetch && !b.servedHit {
		c.Stats.UselessPrefetches++
		if b.pageCross {
			c.Stats.PGCUseless++
		}
	}
	if b.dirty {
		c.Stats.Writebacks++
	}
	if c.OnEvict != nil {
		c.OnEvict(EvictInfo{
			PA:        b.pa,
			Prefetch:  b.prefetch,
			PageCross: b.pageCross,
			ServedHit: b.servedHit,
			Dirty:     b.dirty,
		})
	}
}

// accessWriteback installs or updates a dirty line without a fill from below.
func (c *Cache) accessWriteback(req *Request, cycle uint64) uint64 {
	if b := c.lookup(req.PA); b != nil {
		b.dirty = true
		return cycle + c.cfg.Latency
	}
	// Non-inclusive hierarchy: writebacks that miss are forwarded down.
	c.lowReq = *req
	return c.lower.Access(&c.lowReq, cycle+c.cfg.Latency)
}

// RegisterMetrics exports the level's statistics block, its MSHR-occupancy
// distribution and its miss-latency estimate into a metrics registry under
// prefix (conventionally the configured name: "l1d", "llc", ...).
func (c *Cache) RegisterMetrics(r *metrics.Registry, prefix string) {
	c.Stats.RegisterMetrics(r, prefix)
	c.mshrHist = r.MustHistogram(prefix+".mshr_occupancy",
		[]uint64{0, 1, 2, 4, 8, 16, 32, 64, 128})
	r.GaugeFunc(prefix+".miss_latency_ewma", func() uint64 { return c.missLatEWMA })
}

// Contains reports whether the line holding pa is resident (test helper and
// ISO-storage bookkeeping).
func (c *Cache) Contains(pa mem.PAddr) bool { return c.lookup(pa) != nil }

// ServedHit reports whether a resident block has served a demand hit.
func (c *Cache) ServedHit(pa mem.PAddr) (served, resident bool) {
	if b := c.lookup(pa); b != nil {
		return b.servedHit, true
	}
	return false, false
}

// CheckInvariants verifies the level's structural invariants at the given
// cycle and returns the first violation, nil when clean:
//
//   - MSHR leak-freedom: after retiring completed fills, every remaining
//     entry is genuinely in flight (ready > cycle) — a completed fill still
//     occupying an MSHR is a lost release;
//   - MSHR occupancy never exceeds the configured capacity;
//   - no set holds two valid blocks with the same tag, and every block's
//     recorded address maps back to the set and tag it sits under;
//   - block fill timestamps are ordered (issue ≤ ready).
//
// It calls the same lazy gc every access path runs, so checking is
// semantically invisible to the timing model.
func (c *Cache) CheckInvariants(cycle uint64) error {
	c.gcOutstanding(cycle)
	if got := len(c.mshrs); got > c.cfg.MSHRs {
		return fmt.Errorf("mshr-overflow: %s holds %d in-flight fills with %d MSHRs", c.cfg.Name, got, c.cfg.MSHRs)
	}
	for i, fl := range c.mshrs {
		if fl.ready <= cycle {
			return fmt.Errorf("mshr-leak: %s line %#x completed at cycle %d but still occupies an MSHR at cycle %d", c.cfg.Name, c.mshrLines[i], fl.ready, cycle)
		}
		if fl.issue > fl.ready {
			return fmt.Errorf("mshr-time-order: %s line %#x issued at %d after its ready cycle %d", c.cfg.Name, c.mshrLines[i], fl.issue, fl.ready)
		}
	}
	ways := uint64(c.cfg.Ways)
	for si := range c.sets {
		set := c.sets[si]
		row := c.tags[uint64(si)*ways : uint64(si)*ways+ways]
		for wi := range set {
			b := &set[wi]
			tag := row[wi]
			if b.valid != (tag != invalidTag) {
				return fmt.Errorf("tag-desync: %s set %d way %d valid=%v but packed tag %#x", c.cfg.Name, si, wi, b.valid, tag)
			}
			if !b.valid {
				continue
			}
			if int(c.setIndex(b.pa)) != si || c.tag(b.pa) != tag {
				return fmt.Errorf("block-misplaced: %s block pa %#x stored in set %d tag %#x, address maps to set %d tag %#x",
					c.cfg.Name, b.pa, si, tag, c.setIndex(b.pa), c.tag(b.pa))
			}
			if b.issue > b.ready {
				return fmt.Errorf("block-time-order: %s block pa %#x issue %d > ready %d", c.cfg.Name, b.pa, b.issue, b.ready)
			}
			for wj := wi + 1; wj < len(row); wj++ {
				if row[wj] == tag {
					return fmt.Errorf("duplicate-tag: %s set %d holds tag %#x twice (pa %#x)", c.cfg.Name, si, tag, b.pa)
				}
			}
		}
	}
	return nil
}

// Flush invalidates all blocks, firing eviction hooks. Used when a core
// finishes its trace in multi-core replay.
func (c *Cache) Flush() {
	for si := range c.sets {
		for wi := range c.sets[si] {
			b := &c.sets[si][wi]
			if b.valid {
				c.evict(b)
				b.valid = false
			}
		}
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
		c.lrus[i] = 0
	}
	c.mshrs = c.mshrs[:0]
	c.mshrLines = c.mshrLines[:0]
	c.minReady = ^uint64(0)
}

// warmable is the optional functional-warm interface of a lower level; the
// cascade stops at levels that do not implement it (the DRAM controller,
// fault-injection wrappers).
type warmable interface {
	Warm(pa mem.PAddr, store bool)
}

// Warm performs a functional access: residency, replacement state and dirty
// bits update exactly as a demand access would update them, but no
// statistics move, no hooks fire, no MSHR is allocated and no timing is
// modelled. Misses install the line immediately and cascade the warm access
// into the lower level (when it is itself a cache), so a functional-warmup
// gap leaves the whole hierarchy's residency state where detailed execution
// would have left it. Dirty victims are warm-written to the lower level to
// preserve its residency too; prefetch/PCB metadata of victims is dropped
// silently (the measurement counters are frozen during gaps by design).
func (c *Cache) Warm(pa mem.PAddr, store bool) {
	si := c.setIndex(pa)
	tag := c.tag(pa)
	// One fused pass over the tag row finds a resident hit and the first
	// empty way together; misses in a full set fall through to the policy
	// victim scan. Warm traffic is overwhelmingly full-hierarchy misses
	// (the gap's new working set), so saving the second row traversal per
	// level is a measurable share of functional-warmup time.
	ways := uint64(c.cfg.Ways)
	inv := -1
	for i, k := range c.tags[si*ways : si*ways+ways] {
		if k == tag {
			b := &c.sets[si][i]
			c.touch(si, i)
			if store {
				b.dirty = true
			}
			b.servedHit = true
			return
		}
		if k == invalidTag && inv < 0 {
			inv = i
		}
	}
	set := c.sets[si]
	wi := inv
	if wi < 0 {
		wi = c.victimFull(si)
	}
	b := &set[wi]
	if b.valid && b.dirty && c.lowerWarm != nil {
		c.lowerWarm.Warm(b.pa, true)
	}
	*b = Block{
		valid:     true,
		dirty:     store,
		pa:        pa.Line(),
		servedHit: true,
	}
	c.tags[si*uint64(c.cfg.Ways)+uint64(wi)] = tag
	c.lrus[si*uint64(c.cfg.Ways)+uint64(wi)] = c.fillStamp()
	if c.lowerWarm != nil {
		c.lowerWarm.Warm(pa, false)
	}
}
