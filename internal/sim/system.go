// Package sim wires the substrates into the simulated machines of Table IV:
// a single-core system (core + MMU + 3-level caches + DRAM + prefetchers +
// page-cross policy) and an 8-core system sharing the LLC and DRAM. It owns
// the glue the paper's mechanism lives in: classifying prefetch candidates
// as in-page or page-cross, consulting the policy, driving speculative page
// walks, tagging L1D blocks with the Page-Cross Bit, and feeding the
// training and epoch hooks of the filter.
package sim

import (
	"context"
	"errors"
	"io"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/faultinject"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/mmu"
	"repro/internal/oracle"
	"repro/internal/prefetch"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vmem"
)

// PolicyKind selects the page-cross prefetching policy.
type PolicyKind string

// The policy vocabulary of §V-A.
const (
	PolicyPermit     PolicyKind = "permit"      // Permit PGC
	PolicyDiscard    PolicyKind = "discard"     // Discard PGC (baseline)
	PolicyDiscardPTW PolicyKind = "discard-ptw" // issue only TLB-resident
	PolicyDripper    PolicyKind = "dripper"     // MOKA/DRIPPER filter
	PolicyPPF        PolicyKind = "ppf"         // converted PPF
	PolicyPPFDthr    PolicyKind = "ppf+dthr"    // PPF + dynamic threshold
	PolicyDripperSF  PolicyKind = "dripper-sf"  // system features only
)

// Config describes one simulated system.
type Config struct {
	Core cpu.Config
	MMU  mmu.Config
	L1I  cache.Config
	L1D  cache.Config
	L2C  cache.Config
	LLC  cache.Config
	DRAM dram.Config
	VMem vmem.Config

	// The prefetcher at each level, by name (PrefetcherNames lists them;
	// "" and "none" select no prefetcher). L1DPrefetcher: "berti", "ipcp",
	// "bop", "stride" or "sms". L2CPrefetcher: "spp", "ipcp" or "bop"
	// (§V-B7). L1IPrefetcher: "nextline" (the default) or "fnl+mma".
	L1DPrefetcher string
	L2CPrefetcher string
	L1IPrefetcher string

	// Policy selects the page-cross policy (PolicyNames lists them; ""
	// is Discard PGC); FilterConfig, when non-nil, replaces it with a filter
	// of that configuration (single-feature filters, ablations).
	Policy       PolicyKind
	FilterConfig *core.Config

	// ISOStorage grows the L1D prefetcher's main table by the filter's
	// storage budget and forces Permit PGC (the ISO-Storage scenario).
	ISOStorage bool

	// FilterAt2MB makes the filter act on 2MB-boundary crossings when the
	// prefetched block resides in a 2MB page (DRIPPER(filter@2MB), Fig 16).
	FilterAt2MB bool

	// MaxPrefetchDegree caps candidates consumed per demand access.
	MaxPrefetchDegree int

	// FDPThrottle wraps the L1D prefetcher with Feedback-Directed
	// Prefetching aggressiveness control (the prefetch-management baseline
	// of §VI), independent of the page-cross policy.
	FDPThrottle bool

	WarmupInstrs uint64
	SimInstrs    uint64

	// TraceCapacity, when positive, enables the event tracer with a ring
	// buffer of that many events (TLB misses, walk begin/end, page-cross
	// issues/drops). Zero — the default — leaves tracing disabled at zero
	// allocation cost.
	TraceCapacity int

	// Watchdog bounds forward progress in the run loop; its zero value
	// enables the defaults (see WatchdogConfig).
	Watchdog WatchdogConfig

	// FaultInject, when non-nil, wires fault-injection hooks into the run
	// (stalled loads, inflated memory latency, corrupted trace records,
	// MSHR leaks, stale TLB entries); nil — the production value — injects
	// nothing.
	FaultInject *faultinject.Injector

	// Check enables the differential oracle and runtime invariant checker
	// (see CheckConfig); its zero value disables checking at zero hot-path
	// cost.
	Check CheckConfig

	// Sample enables interval-sampled simulation: measured intervals of
	// detailed execution separated by functional-warmup gaps (see
	// internal/sample). Its zero value — sampling disabled — selects full
	// detailed simulation. Sampling parameters are part of the campaign
	// engine's content-address key, so sampled and full results never alias.
	Sample SampleConfig
}

// WatchdogConfig bounds a run's forward progress. A simulated core that
// stops retiring is otherwise an infinite loop: sys.Core.Run() only returns
// when the instruction budget retires, so one stall bug (a load whose ready
// cycle never arrives, a walker deadlock) would hang an entire experiment
// matrix. The watchdog turns that hang into a StallError with a diagnostic
// snapshot.
type WatchdogConfig struct {
	// NoRetireBound aborts the run when no instruction has retired for
	// this many cycles; 0 selects DefaultNoRetireBound. Even a fully
	// MSHR-saturated DRAM-bound phase retires within a few thousand
	// cycles, so the default has orders-of-magnitude headroom.
	NoRetireBound uint64
	// MaxCycles aborts the run when it exceeds this many cycles from the
	// start of the current Run call; 0 means unlimited.
	MaxCycles uint64
	// PollEvery is the cycle grain at which cancellation and progress are
	// checked; 0 selects DefaultPollEvery. Checks are O(1), so the poll
	// cost is one comparison per PollEvery simulated cycles.
	PollEvery uint64
	// Disable turns the watchdog off entirely (cancellation is still
	// honoured at the poll grain).
	Disable bool
}

// Watchdog defaults.
const (
	DefaultNoRetireBound = uint64(1_000_000)
	DefaultPollEvery     = uint64(2048)
)

func (w WatchdogConfig) withDefaults() WatchdogConfig {
	if w.NoRetireBound == 0 {
		w.NoRetireBound = DefaultNoRetireBound
	}
	if w.PollEvery == 0 {
		w.PollEvery = DefaultPollEvery
	}
	return w
}

// DefaultConfig returns the Table IV single-core configuration with Berti
// and the Discard-PGC policy.
func DefaultConfig() Config {
	return Config{
		Core: cpu.DefaultConfig(),
		MMU:  mmu.DefaultConfig(),
		// Geometry per Table IV. MSHR counts are scaled ~3x above Table IV
		// because this simulator's first-order queueing model makes an
		// exhausted MSHR cost a full completion wait, where a pipelined
		// cache would only delay one issue slot; the scaled counts restore
		// the paper's effective memory-level parallelism.
		L1I:  cache.Config{Name: "l1i", Sets: 64, Ways: 8, Latency: 4, MSHRs: 24},
		L1D:  cache.Config{Name: "l1d", Sets: 64, Ways: 12, Latency: 5, MSHRs: 48},
		L2C:  cache.Config{Name: "l2c", Sets: 1024, Ways: 8, Latency: 10, MSHRs: 96},
		LLC:  cache.Config{Name: "llc", Sets: 2048, Ways: 16, Latency: 20, MSHRs: 192},
		DRAM: dram.DefaultConfig(),
		VMem: vmem.Config{MemBytes: 4 << 30},

		L1DPrefetcher:     "berti",
		L2CPrefetcher:     "none",
		L1IPrefetcher:     "nextline",
		Policy:            PolicyDiscard,
		MaxPrefetchDegree: 4,
		WarmupInstrs:      250_000,
		SimInstrs:         250_000,
	}
}

// System is one single-core simulated machine.
type System struct {
	cfg Config

	AS   *vmem.AddressSpace
	MMU  *mmu.MMU
	L1I  *cache.Cache
	L1D  *cache.Cache
	L2C  *cache.Cache
	LLC  *cache.Cache
	DRAM *dram.DRAM
	Core *cpu.Core

	L1DPf prefetch.Prefetcher
	L2CPf prefetch.Prefetcher
	L1IPf prefetch.Prefetcher
	// Policy may be replaced after New (a pretrained filter, a timing
	// wrapper). First-touch tracking is set up for the configured policy,
	// so a replacement reading FirstPageAccess must be configured through
	// Config.FilterConfig instead.
	Policy core.Policy

	// Metrics is the unified registry every component reports through; see
	// registerMetrics. Tracer is non-nil only when Config.TraceCapacity > 0.
	Metrics *metrics.Registry
	Tracer  *metrics.Tracer

	// Sim-layer prefetch accounting handles (owned by Metrics).
	mL1DTrains     *metrics.Counter
	mL1DCandidates *metrics.Counter
	mL1ICandidates *metrics.Counter
	mL2CCandidates *metrics.Counter
	mDegreeHist    *metrics.Histogram
	mEpochs        *metrics.Counter

	// Sampling accounting, registered (and non-nil) only when sampling is
	// enabled, so full-simulation metric snapshots are byte-identical with
	// and without the sampling subsystem compiled in.
	mSampleSegments       *metrics.Counter
	mSampleWarmInstrs     *metrics.Counter
	mSampleMeasuredInstrs *metrics.Counter

	// Demand history for the filter's Input.
	prevVA1, prevVA2 uint64
	prevPC1, prevPC2 uint64
	// seenPages records the 4KB pages demand accesses have touched, for the
	// FirstPageAccess program features. New builds it only when the
	// configured policy reads that feature (core.ReadsFirstPageAccess); when
	// nil, no access counts as a first touch.
	seenPages map[uint64]struct{}

	// Scratch requests for the per-access hot paths. The system is driven by
	// one goroutine and every cache access resolves synchronously (the
	// hierarchy copies what it retains into Block/MSHR state), so each port
	// can reuse a single request instead of allocating one per access. The
	// prefetch scratch is distinct from the demand scratch because prefetch
	// issue happens while the demand request is no longer live, but the L2
	// adapter's scratch must be its own: it is used inside an L1D access that
	// is still holding the demand or prefetch scratch.
	demandReq cache.Request
	fetchReq  cache.Request
	ipfReq    cache.Request
	pfReq     cache.Request
	l2pfReq   cache.Request

	// Epoch bookkeeping: snapshots of the counters at the last epoch.
	epochSnap epochCounters

	// checker is the lockstep oracle; nil unless Config.Check.Enabled, and
	// every hot-path hook guards on that nil.
	checker *oracle.Checker
}

type epochCounters struct {
	instr, cycles         uint64
	l1dAcc, l1dMiss       uint64
	llcAcc, llcMiss       uint64
	stlbAcc, stlbMiss     uint64
	l1iMiss               uint64
	pgcUseful, pgcUseless uint64
}

// New builds a system. sharedLLC and sharedDRAM may be nil (private) or
// provided by the multi-core wrapper.
func New(cfg Config) (*System, error) {
	return newSystem(cfg, nil, nil)
}

func newSystem(cfg Config, sharedLLC *cache.Cache, sharedDRAM *dram.DRAM) (*System, error) {
	s := &System{cfg: cfg}

	var err error
	if s.AS, err = vmem.New(cfg.VMem); err != nil {
		return nil, err
	}
	if sharedDRAM != nil {
		s.DRAM = sharedDRAM
	} else if s.DRAM, err = dram.New(cfg.DRAM); err != nil {
		return nil, err
	}
	if sharedLLC != nil {
		s.LLC = sharedLLC
	} else if s.LLC, err = cache.New(cfg.LLC, cfg.FaultInject.WrapLevel(s.DRAM)); err != nil {
		return nil, err
	}

	if s.L2C, err = cache.New(cfg.L2C, s.LLC); err != nil {
		return nil, err
	}
	// The L2 adapter trains the L2C prefetcher on the physical stream.
	var l2Level cache.Level = s.L2C
	if s.L2CPf, err = newPrefetcher("l2c", cfg.L2CPrefetcher, false); err != nil {
		return nil, err
	}
	if s.L2CPf != nil {
		l2Level = &l2Adapter{sys: s}
	}
	if s.L1D, err = cache.New(cfg.L1D, l2Level); err != nil {
		return nil, err
	}
	if s.L1I, err = cache.New(cfg.L1I, s.L2C); err != nil {
		return nil, err
	}
	if s.MMU, err = mmu.New(cfg.MMU, s.AS, s.L1D); err != nil {
		return nil, err
	}

	if s.L1DPf, err = newPrefetcher("l1d", cfg.L1DPrefetcher, cfg.ISOStorage); err != nil {
		return nil, err
	}
	if cfg.FDPThrottle && s.L1DPf != nil {
		s.L1DPf = prefetch.NewThrottle(s.L1DPf)
	}
	if s.L1IPf, err = newPrefetcher("l1i", cfg.L1IPrefetcher, false); err != nil {
		return nil, err
	}
	if s.Policy, err = newPolicy(cfg); err != nil {
		return nil, err
	}
	if core.ReadsFirstPageAccess(s.Policy) {
		s.seenPages = make(map[uint64]struct{})
	}

	// L1D hooks feed the filter's training (Fig. 7).
	s.L1D.OnDemandMiss = func(req *cache.Request) {
		s.Policy.OnDemandMiss(req.VA.LineID())
	}
	s.L1D.OnDemandHit = func(h cache.HitInfo) {
		if h.PageCross && h.FirstHit {
			s.Policy.OnDemandHitPCB(h.PA.LineID())
		}
		if h.Prefetch && h.FirstHit {
			if th, ok := s.L1DPf.(*prefetch.Throttle); ok {
				th.Feedback(true)
			}
		}
	}
	s.L1D.OnEvict = func(e cache.EvictInfo) {
		if e.PageCross {
			s.Policy.OnEvictPCB(e.PA.LineID(), e.ServedHit)
		}
		if e.Prefetch && !e.ServedHit {
			if th, ok := s.L1DPf.(*prefetch.Throttle); ok {
				th.Feedback(false)
			}
		}
	}

	if s.Core, err = cpu.New(cfg.Core, cpu.Ports{
		Fetch: s.fetch,
		Load:  s.load,
		Store: s.store,
		Epoch: s.epoch,
	}); err != nil {
		return nil, err
	}

	if cfg.TraceCapacity > 0 {
		if s.Tracer, err = metrics.NewTracer(cfg.TraceCapacity); err != nil {
			return nil, err
		}
		s.MMU.SetTracer(s.Tracer)
	}

	// Fault-injection knobs that live inside components (nil injector →
	// both return 0 → nothing is armed).
	if n := cfg.FaultInject.MSHRLeakEveryN(); n > 0 {
		s.L1D.InjectMSHRLeak(n)
	}
	if n := cfg.FaultInject.TLBStaleEveryN(); n > 0 {
		s.MMU.DTLB.InjectStalePTE(n)
	}

	if cfg.Check.Enabled {
		if err := s.buildChecker(); err != nil {
			return nil, err
		}
	}
	s.registerMetrics(sharedLLC == nil, sharedDRAM == nil)
	return s, nil
}

// l2Adapter interposes on the L1D→L2C path to train the L2C prefetcher,
// whose candidates are clamped to the physical page (§II-A2).
type l2Adapter struct{ sys *System }

// Access implements cache.Level.
func (a *l2Adapter) Access(req *cache.Request, cycle uint64) uint64 {
	s := a.sys
	missesBefore := s.L2C.Stats.DemandMisses
	ready := s.L2C.Access(req, cycle)
	if req.Type.IsDemand() && req.Type != mem.InstrFetch {
		hit := s.L2C.Stats.DemandMisses == missesBefore
		cands := s.L2CPf.Train(prefetch.Access{
			Addr: uint64(req.PA), PC: uint64(req.PC), Cycle: cycle, Hit: hit,
		})
		s.mL2CCandidates.Add(uint64(len(cands)))
		for _, c := range cands {
			if c.CrossesPage(uint64(req.PA)) {
				continue // PIPT prefetchers must stay within the frame
			}
			s.l2pfReq = cache.Request{PA: mem.PAddr(c.Target), PC: req.PC, Type: mem.Prefetch}
			s.L2C.Access(&s.l2pfReq, cycle)
		}
	}
	return ready
}

// Warm implements the cache package's functional-warm cascade: the adapter
// sits between L1D and L2C as a cache.Level, so without this forwarding the
// warm cascade would stop at the adapter and leave L2C (and the levels
// below) cold across sampling gaps. Warm accesses train no prefetcher.
func (a *l2Adapter) Warm(pa mem.PAddr, store bool) { a.sys.L2C.Warm(pa, store) }

// fetch is the instruction port: iTLB + L1I (+ next-line prefetch).
func (s *System) fetch(pc uint64, cycle uint64) uint64 {
	res := s.MMU.TranslateInstr(mem.VAddr(pc), cycle)
	pa := res.Translation.PA(mem.VAddr(pc))
	s.fetchReq = cache.Request{PA: pa, VA: mem.VAddr(pc), PC: mem.VAddr(pc), Type: mem.InstrFetch}
	ready := s.L1I.Access(&s.fetchReq, res.Ready)

	if s.L1IPf != nil {
		icands := s.L1IPf.Train(prefetch.Access{Addr: pc, PC: pc, Cycle: cycle})
		s.mL1ICandidates.Add(uint64(len(icands)))
		for _, c := range icands {
			if c.CrossesPage(pc) {
				continue // instruction prefetching stays in-page
			}
			target := mem.VAddr(c.Target)
			tpa := res.Translation.PA(target)
			s.ipfReq = cache.Request{PA: tpa, VA: target, Type: mem.Prefetch}
			s.L1I.Access(&s.ipfReq, cycle)
		}
	}
	return ready
}

// load is the data-load port: dTLB (+walk) + L1D + prefetch machinery.
func (s *System) load(pc, va uint64, cycle uint64) uint64 {
	return s.demandAccess(pc, va, cycle, mem.Load)
}

// store is the data-store port.
func (s *System) store(pc, va uint64, cycle uint64) uint64 {
	return s.demandAccess(pc, va, cycle, mem.Store)
}

func (s *System) demandAccess(pc, va uint64, cycle uint64, kind mem.AccessType) uint64 {
	res := s.MMU.TranslateData(mem.VAddr(va), cycle)
	pa := res.Translation.PA(mem.VAddr(va))

	missesBefore := s.L1D.Stats.DemandMisses
	s.demandReq = cache.Request{PA: pa, VA: mem.VAddr(va), PC: mem.VAddr(pc), Type: kind}
	ready := s.L1D.Access(&s.demandReq, res.Ready)
	hit := s.L1D.Stats.DemandMisses == missesBefore
	if kind == mem.Load {
		// Fault injection: an artificial retire stall pushes the load's
		// completion out so the ROB head never unblocks (no-op when no
		// injector is configured).
		ready = s.cfg.FaultInject.LoadReady(s.Core.RetiredTotal(), cycle, ready)
	}

	// First-touch tracking, only for a policy that reads FirstPageAccess.
	firstPage := false
	if s.seenPages != nil {
		page := va >> mem.PageBits
		if _, seen := s.seenPages[page]; !seen {
			s.seenPages[page] = struct{}{}
			firstPage = true
		}
	}

	if s.L1DPf != nil {
		if !hit {
			s.L1DPf.FillLatency(ready - cycle)
		}
		s.mL1DTrains.Inc()
		cands := s.L1DPf.Train(prefetch.Access{Addr: va, PC: pc, Cycle: cycle, Hit: hit})
		s.mL1DCandidates.Add(uint64(len(cands)))
		s.issuePrefetches(pc, va, firstPage, res.Translation.Kind, cands, cycle)
	}

	// Maintain the short demand history after using it for this access's
	// prefetch decisions.
	s.prevVA2, s.prevVA1 = s.prevVA1, va
	s.prevPC2, s.prevPC1 = s.prevPC1, pc
	return ready
}

// issuePrefetches classifies and issues the prefetcher's candidates. The
// number actually issued per train feeds the prefetch.l1d.degree histogram
// (the fill-level distribution); page-cross decisions are traced.
func (s *System) issuePrefetches(pc, triggerVA uint64, firstPage bool, triggerKind mem.PageSizeKind, cands []prefetch.Candidate, cycle uint64) {
	degree := s.cfg.MaxPrefetchDegree
	if degree <= 0 {
		degree = len(cands)
	}
	var issued uint64
	for i, c := range cands {
		if i >= degree {
			break
		}
		target := mem.VAddr(c.Target)
		crosses4K := c.CrossesPage(triggerVA)

		if !crosses4K {
			// In-page prefetch: translation is the trigger's.
			res := s.MMU.TranslatePrefetch(target, cycle, false)
			if res.Source == mmu.SrcDenied {
				continue // cannot happen for the trigger page, but be safe
			}
			pa := res.Translation.PA(target)
			s.pfReq = cache.Request{
				PA: pa, VA: target, PC: mem.VAddr(pc), Type: mem.Prefetch, Delta: c.Delta,
			}
			s.L1D.Access(&s.pfReq, res.Ready)
			issued++
			continue
		}

		// Page-cross candidate: consult the policy (Fig. 5 step B).
		// DRIPPER(filter@2MB) exempts crossings that stay inside the
		// trigger's 2MB large page.
		if s.cfg.FilterAt2MB && triggerKind == mem.Page2M &&
			target.LargePageID() == mem.VAddr(triggerVA).LargePageID() {
			res := s.MMU.TranslatePrefetch(target, cycle, false)
			if res.Source == mmu.SrcDenied {
				continue
			}
			pa := res.Translation.PA(target)
			s.Tracer.Emit(cycle, metrics.EvPageCrossIssue, uint64(target), pa.LineID())
			s.pfReq = cache.Request{
				PA: pa, VA: target, PC: mem.VAddr(pc), Type: mem.Prefetch,
				IsPageCross: true, Delta: c.Delta,
			}
			s.L1D.Access(&s.pfReq, res.Ready)
			issued++
			continue
		}

		in := core.Input{
			PC: pc, VA: triggerVA, Delta: c.Delta, Meta: c.Meta,
			PrevVA1: s.prevVA1, PrevVA2: s.prevVA2,
			PrevPC1: s.prevPC1, PrevPC2: s.prevPC2,
			FirstPageAccess: firstPage,
		}
		issue, allowWalk, tag := s.Policy.Decide(in)
		if !issue {
			s.Policy.RecordDiscard(target.LineID(), tag)
			s.L1D.Stats.PGCDropped++
			s.Tracer.Emit(cycle, metrics.EvPageCrossDrop, uint64(target), 0)
			continue
		}
		res := s.MMU.TranslatePrefetch(target, cycle, allowWalk)
		if res.Source == mmu.SrcDenied {
			// Discard-PTW semantics: no speculative walk permitted.
			s.Policy.RecordDiscard(target.LineID(), tag)
			s.L1D.Stats.PGCDropped++
			s.Tracer.Emit(cycle, metrics.EvPageCrossDrop, uint64(target), 1)
			continue
		}
		pa := res.Translation.PA(target)
		s.Policy.RecordIssue(pa.LineID(), tag)
		s.Tracer.Emit(cycle, metrics.EvPageCrossIssue, uint64(target), pa.LineID())
		s.pfReq = cache.Request{
			PA: pa, VA: target, PC: mem.VAddr(pc), Type: mem.Prefetch,
			IsPageCross: true, Delta: c.Delta,
		}
		s.L1D.Access(&s.pfReq, res.Ready)
		issued++
	}
	s.mDegreeHist.Observe(issued)
}

// epoch closes a filter epoch: it builds the SystemState snapshot from the
// per-epoch deltas and ticks the policy.
func (s *System) epoch(cycle, retired uint64) {
	s.mEpochs.Inc()
	cur := epochCounters{
		instr:      retired,
		cycles:     s.Core.Stats.Cycles,
		l1dAcc:     s.L1D.Stats.DemandAccesses,
		l1dMiss:    s.L1D.Stats.DemandMisses,
		llcAcc:     s.LLC.Stats.DemandAccesses,
		llcMiss:    s.LLC.Stats.DemandMisses,
		stlbAcc:    s.MMU.STLB.Stats.DemandAccesses,
		stlbMiss:   s.MMU.STLB.Stats.DemandMisses,
		l1iMiss:    s.L1I.Stats.DemandMisses,
		pgcUseful:  s.L1D.Stats.PGCUseful,
		pgcUseless: s.L1D.Stats.PGCUseless,
	}
	prev := s.epochSnap
	s.epochSnap = cur

	dInstr := float64(cur.instr - prev.instr)
	if dInstr <= 0 {
		return
	}
	rate := func(miss, acc uint64) float64 {
		if acc == 0 {
			return 0
		}
		return float64(miss) / float64(acc)
	}
	state := core.SystemState{
		L1DMPKI:           float64(cur.l1dMiss-prev.l1dMiss) * 1000 / dInstr,
		L1DMissRate:       rate(cur.l1dMiss-prev.l1dMiss, cur.l1dAcc-prev.l1dAcc),
		LLCMPKI:           float64(cur.llcMiss-prev.llcMiss) * 1000 / dInstr,
		LLCMissRate:       rate(cur.llcMiss-prev.llcMiss, cur.llcAcc-prev.llcAcc),
		STLBMPKI:          float64(cur.stlbMiss-prev.stlbMiss) * 1000 / dInstr,
		STLBMissRate:      rate(cur.stlbMiss-prev.stlbMiss, cur.stlbAcc-prev.stlbAcc),
		L1IMPKI:           float64(cur.l1iMiss-prev.l1iMiss) * 1000 / dInstr,
		ROBPressure:       s.Core.InstantROBOccupancyFrac(),
		InflightL1DMisses: s.L1D.OutstandingMisses(cycle),
		PGCUseful:         cur.pgcUseful - prev.pgcUseful,
		PGCUseless:        cur.pgcUseless - prev.pgcUseless,
	}
	if dc := cur.cycles - prev.cycles; dc > 0 {
		state.IPC = dInstr / float64(dc)
	}
	s.Policy.Tick(state)
	if s.checker != nil {
		// Instruction-retire boundary: metadata bounds after every Tick.
		s.checker.CheckMetadata(cycle)
	}
}

// ResetStats zeroes all statistics (after warmup) while preserving
// microarchitectural state.
func (s *System) ResetStats() {
	s.Core.ResetStats()
	*s.L1I.Stats = stats.CacheStats{}
	*s.L1D.Stats = stats.CacheStats{}
	*s.L2C.Stats = stats.CacheStats{}
	*s.LLC.Stats = stats.CacheStats{}
	*s.MMU.DTLB.Stats = stats.CacheStats{}
	*s.MMU.ITLB.Stats = stats.CacheStats{}
	*s.MMU.STLB.Stats = stats.CacheStats{}
	*s.MMU.PTW.Stats = stats.PTWStats{}
	s.DRAM.Stats = dram.Stats{}
	s.epochSnap = epochCounters{}
	// Registry-owned counters and histograms (MSHR/latency/depth/degree
	// distributions, epoch count) reset with the stats they accompany; the
	// function-backed views above reset through their underlying fields.
	s.Metrics.Reset()
	s.Tracer.Reset()
}

// Collect gathers the current statistics into a Run.
func (s *System) Collect(name, suite string) *stats.Run {
	return &stats.Run{
		Workload: name,
		Suite:    suite,
		Core:     *s.Core.Stats,
		L1I:      *s.L1I.Stats,
		L1D:      *s.L1D.Stats,
		L2C:      *s.L2C.Stats,
		LLC:      *s.LLC.Stats,
		DTLB:     *s.MMU.DTLB.Stats,
		ITLB:     *s.MMU.ITLB.Stats,
		STLB:     *s.MMU.STLB.Stats,
		PTW:      *s.MMU.PTW.Stats,
	}
}

// Run drives the core until its attached budget retires, honouring ctx and
// the configured watchdog. Cancellation and progress are checked every
// WatchdogConfig.PollEvery cycles, so teardown latency is bounded by the
// poll grain, not the instruction budget. It returns nil on completion,
// ctx.Err() on cancellation, or a *StallError when a bound trips.
func (s *System) Run(ctx context.Context) error {
	wd := s.cfg.Watchdog.withDefaults()
	start := s.Core.Cycle()
	for !s.Core.StepCycles(wd.PollEvery) {
		if err := ctx.Err(); err != nil {
			return err
		}
		if s.checker != nil {
			s.runChecks(s.Core.Cycle())
		}
		if wd.Disable {
			continue
		}
		cycle := s.Core.Cycle()
		if last := s.Core.LastRetireCycle(); cycle-last > wd.NoRetireBound {
			s.Tracer.Emit(cycle, metrics.EvStallSnapshot, s.Core.RetiredTotal(), last)
			return &StallError{Reason: StallNoRetire, Bound: wd.NoRetireBound, Snap: s.StallSnapshot()}
		}
		if wd.MaxCycles > 0 && cycle-start > wd.MaxCycles {
			s.Tracer.Emit(cycle, metrics.EvStallSnapshot, s.Core.RetiredTotal(), s.Core.LastRetireCycle())
			return &StallError{Reason: StallCycleCeiling, Bound: wd.MaxCycles, Snap: s.StallSnapshot()}
		}
	}
	if s.checker != nil {
		// Final sweep at the run boundary, then surface anything the run
		// accumulated (FailFast runs never reach here with violations —
		// they panic at the poll boundary that observed them).
		s.runChecks(s.Core.Cycle())
		if err := s.checker.Err(); err != nil {
			return err
		}
	}
	return nil
}

// RunWorkload builds a fresh system from cfg, warms it up on the workload,
// measures SimInstrs instructions and returns the statistics. A cancelled or
// expired ctx tears the run down within the watchdog's poll grain; pass
// context.Background() when no cancellation is needed.
func RunWorkload(ctx context.Context, cfg Config, w trace.Workload) (*stats.Run, error) {
	reader, err := w.NewReader()
	if err != nil {
		return nil, &RunError{Workload: w.Name, Stage: "setup", Err: err}
	}
	// Interval placement derives from the workload's own generator seed when
	// the sample config does not pin one: deterministic per workload, with
	// no global RNG anywhere in the chain.
	if cfg.Sample.Enabled && cfg.Sample.Seed == 0 && w.Config.Seed != 0 {
		cfg.Sample.Seed = w.Config.Seed
	}
	run, rerr := RunTrace(ctx, cfg, w.Name, w.Suite, reader)
	// External trace readers (ChampSim files) report decode failures through
	// a sticky error and hold an open file: a torn record mid-stream must
	// fail the run, not silently shorten it, and the descriptor must not
	// leak across a campaign's thousands of cells.
	if ec, ok := reader.(interface{ Err() error }); ok && rerr == nil {
		if derr := ec.Err(); derr != nil {
			rerr = &RunError{Workload: w.Name, Stage: "trace", Err: derr}
		}
	}
	if c, ok := reader.(io.Closer); ok {
		c.Close()
	}
	return run, rerr
}

// RunTrace runs an arbitrary instruction stream (e.g. a recorded trace file)
// through a fresh system: warmup, stats reset, measurement. Failures come
// back as *RunError wrapping the cause (*StallError for watchdog aborts,
// ctx.Err() for cancellation). When the measurement phase is interrupted,
// the statistics collected so far are returned alongside the error so
// interactive callers can report partial results; they are not comparable to
// a complete run and must not enter a matrix.
func RunTrace(ctx context.Context, cfg Config, name, suite string, reader trace.Reader) (*stats.Run, error) {
	run, _, err := RunTraceSystem(ctx, cfg, name, suite, reader)
	return run, err
}

// RunTraceSystem is RunTrace returning the system alongside the run, so
// callers can export its metrics snapshot (-metrics-out), drain its event
// tracer (-trace-out), or diff registries across runs. The system is nil
// only when construction itself failed.
func RunTraceSystem(ctx context.Context, cfg Config, name, suite string, reader trace.Reader) (*stats.Run, *System, error) {
	if err := cfg.FaultInject.BeginAttempt(); err != nil {
		return nil, nil, &RunError{Workload: name, Stage: "setup", Err: err}
	}
	sys, err := New(cfg)
	if err != nil {
		return nil, nil, &RunError{Workload: name, Stage: "build", Err: err}
	}
	reader = cfg.FaultInject.WrapReader(reader)
	if cfg.Sample.Enabled {
		run, err := sys.runSampled(ctx, name, suite, reader)
		return run, sys, err
	}
	if cfg.WarmupInstrs > 0 {
		sys.Core.Attach(reader, cfg.WarmupInstrs)
		if err := sys.Run(ctx); err != nil {
			return nil, sys, &RunError{Workload: name, Stage: runStage("warmup", err), Err: err}
		}
		sys.ResetStats()
	}
	sys.Core.Attach(reader, cfg.SimInstrs)
	if err := sys.Run(ctx); err != nil {
		return sys.Collect(name, suite), sys, &RunError{Workload: name, Stage: runStage("measure", err), Err: err}
	}
	return sys.Collect(name, suite), sys, nil
}

// runStage refines a run phase's ledger stage: invariant-checker failures
// are their own stage ("check") regardless of which phase observed them.
func runStage(phase string, err error) string {
	var ce *CheckError
	if errors.As(err, &ce) {
		return "check"
	}
	return phase
}
