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
//
// Set state is laid out like the hardware's metadata arrays: a tag row, one
// state byte per way, a timing row read only for ways filled by a timed
// access, and one packed LRU-stack word per set.
package cache

import (
	"fmt"

	"repro/internal/lrustack"
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

// The bits of a way's state byte. An empty way's byte is zero; validity
// itself lives in the tag row.
const (
	stDirty     uint8 = 1 << iota
	stPrefetch        // filled by a prefetch (kept until eviction)
	stPageCross       // the paper's PCB bit
	stServedHit       // served >=1 demand access since fill
	stTimed           // the way's timing row holds its fill's issue/ready cycles

	rrpvShift       = 6
	stRRPV    uint8 = 3 << rrpvShift // SRRIP's 2-bit re-reference prediction
)

// timing is the fill-time record of a way installed by a timed access. A
// way without stTimed reads as issue = ready = 0: resident since cycle 0.
type timing struct {
	issue uint64 // cycle the fill request was issued
	ready uint64 // fill-completion cycle
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
	if c.Ways > lrustack.MaxWays {
		return fmt.Errorf("cache %s: ways %d exceeds the packed LRU stack's limit of %d", c.Name, c.Ways, lrustack.MaxWays)
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

// invalidTag marks an empty way in the packed tag array. No reachable
// physical address produces it: a real tag is PA.LineID() >> log2(sets),
// far below 2^64-1 for any physical memory the simulator can configure.
const invalidTag = ^uint64(0)

// Cache is one physically-tagged cache level.
type Cache struct {
	cfg   Config
	lower Level
	// tags, state and times are parallel rows indexed by set*Ways+way. The
	// tag row is the only copy of a line's address (invalidTag marks an
	// empty way); state holds the way's st* bits; times is read only when
	// stTimed is set, so functional Warm installs never touch it.
	tags  []uint64
	state []uint8
	times []timing
	// stacks holds one packed LRU order per set (LRU policy only).
	stacks []lrustack.Stack
	// setShift is log2(Sets), precomputed: tag extraction runs on every
	// access at every level and must not re-derive it.
	setShift uint
	// lowerWarm is lower pre-asserted to warmable (nil when the lower level
	// cannot warm, e.g. DRAM); Warm cascades misses through it without a
	// per-call type assertion.
	lowerWarm warmable
	rng       uint64 // state for random replacement
	// missLatEWMA tracks the typical demand full-miss latency at this
	// level; only the miss_latency_ewma gauge reads it.
	missLatEWMA uint64

	// mshrHist samples MSHR occupancy once per access when the level is
	// registered in a metrics registry; nil (the unregistered state) makes
	// Observe a single branch.
	mshrHist *metrics.Histogram

	// mshrs is the MSHR file, swept lazily: a completed fill leaves it
	// when a later access at or after its ready cycle arrives.
	mshrs mshrFile

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
}

// New builds a cache on top of lower.
func New(cfg Config, lower Level) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if lower == nil {
		return nil, fmt.Errorf("cache %s: nil lower level", cfg.Name)
	}
	n := cfg.Sets * cfg.Ways
	tags := make([]uint64, n)
	for i := range tags {
		tags[i] = invalidTag
	}
	stacks := make([]lrustack.Stack, cfg.Sets)
	for i := range stacks {
		stacks[i] = lrustack.New(cfg.Ways)
	}
	lw, _ := lower.(warmable)
	return &Cache{
		cfg:         cfg,
		lower:       lower,
		lowerWarm:   lw,
		tags:        tags,
		state:       make([]uint8, n),
		times:       make([]timing, n),
		stacks:      stacks,
		setShift:    uint(log2(cfg.Sets)),
		mshrs:       newMSHRFile(cfg.MSHRs),
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

// lineAddr rebuilds the line address held under tag in set si.
func (c *Cache) lineAddr(si, tag uint64) mem.PAddr {
	return mem.PAddr((tag<<c.setShift | si) << mem.LineBits)
}

// when returns the fill-time record of row index i; an untimed way reads
// as resident since cycle 0.
func (c *Cache) when(i uint64) timing {
	if c.state[i]&stTimed == 0 {
		return timing{}
	}
	return c.times[i]
}

func log2(x int) int {
	n := 0
	for x > 1 {
		x >>= 1
		n++
	}
	return n
}

// scan makes one pass over the tag row starting at row index base and
// returns the way holding tag (-1 if none) and, when no way holds it, the
// first empty way (-1 if none).
func (c *Cache) scan(base, tag uint64) (hit, empty int) {
	empty = -1
	for i, k := range c.tags[base : base+uint64(c.cfg.Ways)] {
		if k == tag {
			return i, -1
		}
		if k == invalidTag && empty < 0 {
			empty = i
		}
	}
	return -1, empty
}

// lookup returns the row index of the way holding pa, or -1.
func (c *Cache) lookup(pa mem.PAddr) int {
	base := c.setIndex(pa) * uint64(c.cfg.Ways)
	if wi, _ := c.scan(base, c.tag(pa)); wi >= 0 {
		return int(base) + wi
	}
	return -1
}

// InjectMSHRLeak makes every Nth MSHR release be lost (0 disables): the
// completed fill's entry stays allocated forever, so occupancy creeps up
// until the leak-freedom invariant trips. Fault injection for the oracle.
func (c *Cache) InjectMSHRLeak(everyN uint64) { c.mshrs.leakEveryN = everyN }

// OutstandingMisses reports the number of in-flight fills at the given
// cycle; the adaptive thresholding scheme uses it as ROB/L1D pressure input.
func (c *Cache) OutstandingMisses(cycle uint64) int {
	c.mshrs.sweep(cycle)
	return c.mshrs.len()
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
	c.mshrs.sweep(cycle)
	c.mshrHist.Observe(uint64(c.mshrs.len()))
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
	//
	// One pass over the set's tag row finds the way holding the line and
	// the first empty way; a miss's fill reuses both instead of scanning
	// the row again.
	si, tag := c.setIndex(req.PA), c.tag(req.PA)
	base := si * uint64(c.cfg.Ways)
	wi, empty := c.scan(base, tag)
	if wi >= 0 {
		i := base + uint64(wi)
		if t := c.when(i); cycle >= t.issue {
			c.touch(si, wi)
			ready := cycle + c.cfg.Latency
			merged := t.ready > ready
			if merged {
				ready = t.ready
			}
			if demand {
				if merged {
					c.Stats.DemandMisses++
				} else {
					c.Stats.DemandHits++
				}
				first, st := c.serveDemand(req, i)
				if c.OnDemandHit != nil {
					c.OnDemandHit(HitInfo{
						PA: req.PA, VA: req.VA, PC: req.PC,
						Prefetch: st&stPrefetch != 0, PageCross: st&stPageCross != 0,
						FirstHit: first,
					})
				}
			} else if req.Type == mem.Prefetch {
				c.Stats.PrefetchHits++
			}
			return ready
		}
	}

	// In-flight merge. The block was installed eagerly at miss time, so a
	// demand merging into a prefetch MSHR must update the resident block's
	// usefulness the same way a post-fill hit would (late-but-useful
	// prefetch).
	line := req.PA.LineID()
	fi := c.mshrs.find(line)
	if fi >= 0 && cycle >= c.mshrs.entries[fi].issue {
		if demand {
			c.Stats.DemandMisses++
			if wi >= 0 {
				c.serveDemand(req, base+uint64(wi))
			}
		} else if req.Type == mem.Prefetch {
			c.Stats.PrefetchHits++
		}
		ready := c.mshrs.entries[fi].ready
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
	if req.Type == mem.Prefetch && c.mshrs.len() >= c.cfg.MSHRs {
		// Prefetches are dropped when MSHRs are exhausted.
		c.Stats.MSHRDropPrefetch++
		return cycle
	}
	issue := cycle
	if c.mshrs.len() >= c.cfg.MSHRs {
		c.Stats.MSHRFullWaits++
		// Demand miss with full MSHRs: wait for the earliest completion.
		issue = c.mshrs.earliest()
		c.mshrs.sweep(issue)
		if fi >= 0 {
			fi = c.mshrs.find(line) // retirement may have moved the entry
		}
	}

	c.lowReq = *req
	ready := c.lower.Access(&c.lowReq, issue+c.cfg.Latency)

	fl := mshr{issue: issue, ready: ready}
	// A line whose fill is already in flight (issued after this access's
	// cycle) is re-issued in place, so the file never holds one line twice.
	if fi >= 0 {
		c.mshrs.reissue(fi, fl)
	} else {
		c.mshrs.alloc(line, fl)
	}
	if demand && ready > cycle {
		c.missLatEWMA = (c.missLatEWMA*7 + (ready - cycle)) / 8
	}
	// Nothing writes this cache's tag row between the scan above and the
	// fill, so wi and empty still describe the set: the hierarchy is
	// non-inclusive, so no lower level (nor the simulator's L2 adapter and
	// the L2C prefetches it issues) reaches back up; OnDemandMiss only
	// trains the page-cross filter; the MSHR sweep touches the MSHR file
	// alone.
	if wi < 0 {
		wi = empty
		if wi < 0 {
			wi = c.victimFull(si)
		}
	}
	c.fill(req, si, wi, tag, issue, ready, req.IsPageCross && req.Type == mem.Prefetch, demand)
	return ready
}

// serveDemand marks row i as having served a demand access, crediting a
// prefetched block's first use, and returns whether this was its first
// demand and the way's state before the access.
func (c *Cache) serveDemand(req *Request, i uint64) (first bool, st uint8) {
	st = c.state[i]
	first = st&stServedHit == 0
	if first && st&stPrefetch != 0 {
		c.Stats.UsefulPrefetches++
		if st&stPageCross != 0 {
			c.Stats.PGCUseful++
		}
	}
	ns := st | stServedHit
	if req.Type == mem.Store {
		ns |= stDirty
	}
	c.state[i] = ns
	return first, st
}

// touch updates replacement state on a hit.
func (c *Cache) touch(si uint64, wi int) {
	switch c.cfg.Repl {
	case ReplSRRIP:
		c.state[si*uint64(c.cfg.Ways)+uint64(wi)] &^= stRRPV // re-referenced soon
	case ReplRandom:
		// Random replacement keeps no reuse state.
	default: // LRU
		c.stacks[si].Touch(wi)
	}
}

// victimFull picks the replacement victim in set si assuming every way is
// valid (the caller has already checked the tag row for empty ways).
func (c *Cache) victimFull(si uint64) int {
	switch c.cfg.Repl {
	case ReplSRRIP:
		// Find an RRPV-3 block, aging the set until one exists. Aging runs
		// only while every RRPV is below 3, so the 2-bit field never wraps.
		ways := uint64(c.cfg.Ways)
		row := c.state[si*ways : si*ways+ways]
		for {
			for i, st := range row {
				if st&stRRPV == stRRPV {
					return i
				}
			}
			for i := range row {
				row[i] += 1 << rrpvShift
			}
		}
	case ReplRandom:
		c.rng = c.rng*6364136223846793005 + 1442695040888963407
		return int((c.rng >> 33) % uint64(c.cfg.Ways))
	default: // LRU
		return c.stacks[si].Victim(c.cfg.Ways)
	}
}

// install writes tag and state st into way wi of set si and gives the way
// its fill-time replacement state.
func (c *Cache) install(si uint64, wi int, tag uint64, st uint8) {
	i := si*uint64(c.cfg.Ways) + uint64(wi)
	switch c.cfg.Repl {
	case ReplSRRIP:
		st |= 2 << rrpvShift // RRPV: long re-reference interval
	case ReplRandom:
		// No reuse state to initialise.
	default: // LRU
		c.stacks[si].Touch(wi)
	}
	c.tags[i] = tag
	c.state[i] = st
}

// fill installs the line into way wi of set si, evicting its block if the
// way is valid. The caller passes the way already holding the line when
// there is one (a demand overtook a not-yet-issued prefetch, or vice versa),
// so the block is replaced in place and a set never holds two copies of one
// tag; otherwise the first empty way or the policy's victim. pageCross
// marks a page-cross prefetch; demand marks a demand fill, whose block has
// served its access.
func (c *Cache) fill(req *Request, si uint64, wi int, tag, issue, ready uint64, pageCross, demand bool) {
	i := si*uint64(c.cfg.Ways) + uint64(wi)
	if c.tags[i] != invalidTag {
		c.evict(si, i)
	}
	isPrefetch := req.Type == mem.Prefetch
	st := stTimed
	if req.Type == mem.Store {
		st |= stDirty
	}
	if isPrefetch {
		st |= stPrefetch
	}
	if pageCross {
		st |= stPageCross
	}
	if demand && !isPrefetch {
		st |= stServedHit
	}
	c.install(si, wi, tag, st)
	c.times[i] = timing{issue: issue, ready: ready}
	if isPrefetch {
		c.Stats.PrefetchFills++
		if pageCross {
			c.Stats.PGCIssued++
		}
	}
}

// evict notifies hooks and accounts stats for the valid way at row index i
// of set si. A dirty line only counts in Writebacks: nothing is sent to
// the level below.
func (c *Cache) evict(si, i uint64) {
	st := c.state[i]
	c.Stats.Evictions++
	if st&(stPrefetch|stServedHit) == stPrefetch {
		c.Stats.UselessPrefetches++
		if st&stPageCross != 0 {
			c.Stats.PGCUseless++
		}
	}
	if st&stDirty != 0 {
		c.Stats.Writebacks++
	}
	if c.OnEvict != nil {
		c.OnEvict(EvictInfo{
			PA:        c.lineAddr(si, c.tags[i]),
			Prefetch:  st&stPrefetch != 0,
			PageCross: st&stPageCross != 0,
			ServedHit: st&stServedHit != 0,
			Dirty:     st&stDirty != 0,
		})
	}
}

// accessWriteback installs or updates a dirty line without a fill from below.
func (c *Cache) accessWriteback(req *Request, cycle uint64) uint64 {
	if i := c.lookup(req.PA); i >= 0 {
		c.state[i] |= stDirty
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
	c.mshrHist = r.Histogram(prefix+".mshr_occupancy",
		[]uint64{0, 1, 2, 4, 8, 16, 32, 64, 128})
	r.Source(prefix, c)
}

// EmitMetrics implements metrics.Source: the statistics block and the
// miss-latency estimate.
func (c *Cache) EmitMetrics(emit metrics.Emit) {
	c.Stats.EmitMetrics(emit)
	emit("miss_latency_ewma", metrics.KindGauge, c.missLatEWMA)
}

// Contains reports whether the line holding pa is resident (test helper and
// ISO-storage bookkeeping).
func (c *Cache) Contains(pa mem.PAddr) bool { return c.lookup(pa) >= 0 }

// ServedHit reports whether a resident block has served a demand hit.
func (c *Cache) ServedHit(pa mem.PAddr) (served, resident bool) {
	if i := c.lookup(pa); i >= 0 {
		return c.state[i]&stServedHit != 0, true
	}
	return false, false
}

// CheckInvariants verifies the level's structural invariants at the given
// cycle and returns the first violation, nil when clean:
//
//   - the MSHR file's line index and ready row agree with its entries;
//   - MSHR leak-freedom: after retiring completed fills, every remaining
//     entry is genuinely in flight (ready > cycle) — a completed fill still
//     occupying an MSHR is a lost release;
//   - MSHR occupancy never exceeds the configured capacity;
//   - each set's LRU stack is a permutation of its way ids;
//   - an empty way carries no state bits;
//   - every valid tag rebuilds a line address that maps back to its set
//     and tag, and no set holds one tag twice;
//   - fill timestamps are ordered (issue ≤ ready).
//
// It calls the same lazy gc every access path runs, so checking is
// semantically invisible to the timing model.
func (c *Cache) CheckInvariants(cycle uint64) error {
	c.mshrs.sweep(cycle)
	if err := c.mshrs.check(c.cfg.Name, c.cfg.MSHRs, cycle); err != nil {
		return err
	}
	ways := uint64(c.cfg.Ways)
	for si := uint64(0); si < uint64(c.cfg.Sets); si++ {
		if err := c.stacks[si].Check(c.cfg.Ways); err != nil {
			return fmt.Errorf("recency-perm: %s set %d: %v", c.cfg.Name, si, err)
		}
		row := c.tags[si*ways : si*ways+ways]
		for wi, tag := range row {
			i := si*ways + uint64(wi)
			if tag == invalidTag {
				if c.state[i] != 0 {
					return fmt.Errorf("tag-desync: %s set %d way %d is empty but holds state %#x", c.cfg.Name, si, wi, c.state[i])
				}
				continue
			}
			if pa := c.lineAddr(si, tag); c.tag(pa) != tag {
				return fmt.Errorf("block-misplaced: %s set %d way %d tag %#x rebuilds pa %#x, which maps to tag %#x",
					c.cfg.Name, si, wi, tag, pa, c.tag(pa))
			}
			if t := c.when(i); t.issue > t.ready {
				return fmt.Errorf("block-time-order: %s block pa %#x issue %d > ready %d", c.cfg.Name, c.lineAddr(si, tag), t.issue, t.ready)
			}
			for wj := wi + 1; wj < len(row); wj++ {
				if row[wj] == tag {
					return fmt.Errorf("duplicate-tag: %s set %d holds tag %#x twice (pa %#x)", c.cfg.Name, si, tag, c.lineAddr(si, tag))
				}
			}
		}
	}
	return nil
}

// Flush invalidates all blocks, firing eviction hooks. Used when a core
// finishes its trace in multi-core replay.
func (c *Cache) Flush() {
	ways := uint64(c.cfg.Ways)
	for i, tag := range c.tags {
		if tag != invalidTag {
			c.evict(uint64(i)/ways, uint64(i))
		}
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	clear(c.state)
	c.mshrs.flush()
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
// Installs leave stTimed clear, so the timing row is never touched.
func (c *Cache) Warm(pa mem.PAddr, store bool) {
	si := c.setIndex(pa)
	tag := c.tag(pa)
	st := stServedHit
	if store {
		st |= stDirty
	}
	// One fused pass over the tag row finds a resident hit and the first
	// empty way together; misses in a full set fall through to the policy
	// victim scan. Warm traffic is overwhelmingly full-hierarchy misses
	// (the gap's new working set), so saving the second row traversal per
	// level is a measurable share of functional-warmup time.
	base := si * uint64(c.cfg.Ways)
	wi, empty := c.scan(base, tag)
	if wi >= 0 {
		c.touch(si, wi)
		c.state[base+uint64(wi)] |= st
		return
	}
	wi = empty
	if wi < 0 {
		wi = c.victimFull(si)
		if v := base + uint64(wi); c.state[v]&stDirty != 0 && c.lowerWarm != nil {
			c.lowerWarm.Warm(c.lineAddr(si, c.tags[v]), true)
		}
	}
	c.install(si, wi, tag, st)
	if c.lowerWarm != nil {
		c.lowerWarm.Warm(pa, false)
	}
}
