// Package mmu composes the address-translation path of one core: the
// first-level TLBs (dTLB for data, iTLB for instructions), the shared
// second-level sTLB, and the hardware page-table walker. It is the single
// entry point the core and the prefetch machinery use to turn virtual
// addresses into physical ones, and it implements the translation
// behaviours the paper's policies distinguish:
//
//   - demand translations walk the page table on an sTLB miss;
//   - page-cross prefetch translations may walk speculatively (Permit PGC,
//     DRIPPER) or be restricted to TLB-resident translations (Discard PTW);
//   - translations fetched by page-cross prefetch walks fill both the
//     first-level TLB and the sTLB (§II-C), making TLB pollution and
//     TLB-prefetching benefits observable.
package mmu

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/ptw"
	"repro/internal/tlb"
	"repro/internal/vmem"
)

// MMU is one core's translation machinery.
type MMU struct {
	DTLB *tlb.TLB
	ITLB *tlb.TLB
	STLB *tlb.TLB
	PTW  *ptw.Walker

	// Trace, when non-nil, receives a tlb-miss event for every translation
	// that misses both TLB levels; nil costs one branch per sTLB miss.
	Trace *metrics.Tracer

	// OnWalkEnd, when non-nil, fires after every page walk completes with
	// the walked address, the translation fetched, and the cycle it becomes
	// available. The differential oracle hooks here to cross-check walk
	// results at walk-complete boundaries; nil (the production default)
	// costs one branch per walk.
	OnWalkEnd func(va mem.VAddr, tr vmem.Translation, ready uint64)
}

// Config sizes the three TLBs (Table IV defaults via DefaultConfig).
type Config struct {
	DTLB tlb.Config
	ITLB tlb.Config
	STLB tlb.Config
	PTW  ptw.Config
}

// DefaultConfig matches Table IV: 64-entry 4-way L1 TLBs with 1-cycle
// latency, a 1536-entry 12-way sTLB with 8-cycle latency.
func DefaultConfig() Config {
	return Config{
		DTLB: tlb.Config{Name: "dtlb", Sets: 16, Ways: 4, Latency: 1},
		ITLB: tlb.Config{Name: "itlb", Sets: 16, Ways: 4, Latency: 1},
		STLB: tlb.Config{Name: "stlb", Sets: 128, Ways: 12, Latency: 8},
		PTW:  ptw.DefaultConfig(),
	}
}

// New builds the MMU. walkLevel is the cache level where page-table reads
// are issued (the L1D in the simulated hierarchy).
func New(cfg Config, as *vmem.AddressSpace, walkLevel ptwLevel) (*MMU, error) {
	d, err := tlb.New(cfg.DTLB)
	if err != nil {
		return nil, err
	}
	i, err := tlb.New(cfg.ITLB)
	if err != nil {
		return nil, err
	}
	s, err := tlb.New(cfg.STLB)
	if err != nil {
		return nil, err
	}
	w, err := ptw.New(cfg.PTW, as, walkLevel)
	if err != nil {
		return nil, err
	}
	return &MMU{DTLB: d, ITLB: i, STLB: s, PTW: w}, nil
}

// ptwLevel is the cache.Level dependency, aliased to avoid the import in
// signatures callers read.
type ptwLevel = ptw.CacheLevel

// Result describes how a translation was served.
type Result struct {
	Translation vmem.Translation
	Ready       uint64
	// Source is where the translation came from.
	Source Source
}

// Source enumerates translation sources.
type Source uint8

const (
	// SrcL1TLB means the first-level TLB hit.
	SrcL1TLB Source = iota
	// SrcSTLB means the sTLB hit (L1 TLB filled).
	SrcSTLB
	// SrcWalk means a page walk fetched the translation.
	SrcWalk
	// SrcDenied means the request was not allowed to walk (prefetch with
	// walking disabled) and no TLB held the translation.
	SrcDenied
)

// String names the source.
func (s Source) String() string {
	switch s {
	case SrcL1TLB:
		return "l1tlb"
	case SrcSTLB:
		return "stlb"
	case SrcWalk:
		return "walk"
	case SrcDenied:
		return "denied"
	}
	return "unknown"
}

// TranslateData translates a demand data access, walking if necessary.
func (m *MMU) TranslateData(va mem.VAddr, cycle uint64) Result {
	return m.translate(m.DTLB, va, cycle, true, true, false)
}

// TranslateInstr translates an instruction fetch.
func (m *MMU) TranslateInstr(va mem.VAddr, cycle uint64) Result {
	return m.translate(m.ITLB, va, cycle, true, true, false)
}

// TranslatePrefetch translates a prefetch target. allowWalk selects whether
// an sTLB miss may trigger a speculative page walk (true for Permit
// PGC/DRIPPER-approved prefetches, false for the Discard-PTW policy).
// In-page prefetches always have allowWalk=false semantics at call sites
// that already translated the demand page.
func (m *MMU) TranslatePrefetch(va mem.VAddr, cycle uint64, allowWalk bool) Result {
	return m.translate(m.DTLB, va, cycle, false, allowWalk, true)
}

// Resident reports whether a translation for va is present in the dTLB or
// sTLB, without perturbing TLB state.
func (m *MMU) Resident(va mem.VAddr) bool {
	return m.DTLB.Probe(va) || m.STLB.Probe(va)
}

func (m *MMU) translate(l1 *tlb.TLB, va mem.VAddr, cycle uint64, demand, allowWalk, fromPrefetch bool) Result {
	if tr, hit := l1.Lookup(va, demand); hit {
		return Result{Translation: tr, Ready: cycle + l1.Latency(), Source: SrcL1TLB}
	}
	after := cycle + l1.Latency()
	if tr, hit := m.STLB.Lookup(va, demand); hit {
		l1.Insert(va, tr, false)
		return Result{Translation: tr, Ready: after + m.STLB.Latency(), Source: SrcSTLB}
	}
	after += m.STLB.Latency()
	var fromPf uint64
	if fromPrefetch {
		fromPf = 1
	}
	m.Trace.Emit(cycle, metrics.EvTLBMiss, va.PageID(), fromPf)
	if !allowWalk {
		return Result{Source: SrcDenied, Ready: after}
	}
	tr, ready := m.PTW.Walk(va, after, fromPrefetch)
	// Walked translations fill both TLB levels (§II-C: "translations
	// brought by page-cross prefetches are stored in both dTLB and sTLB").
	m.STLB.Insert(va, tr, fromPrefetch)
	l1.Insert(va, tr, fromPrefetch)
	if m.OnWalkEnd != nil {
		m.OnWalkEnd(va, tr, ready)
	}
	return Result{Translation: tr, Ready: ready, Source: SrcWalk}
}

// WarmData functionally translates a data access: TLB residency, LRU state
// and PSC contents update as a demand translation would update them, but no
// statistics move, no memory reads are issued and no timing is modelled. The
// page-table reads a walk would have issued are appended to reads (see
// ptw.WarmWalk). Used by the interval sampler's functional-warmup gaps.
func (m *MMU) WarmData(va mem.VAddr, reads []mem.PAddr) (vmem.Translation, []mem.PAddr) {
	return m.warm(m.DTLB, va, reads)
}

// WarmInstr functionally translates an instruction fetch (see WarmData).
func (m *MMU) WarmInstr(va mem.VAddr, reads []mem.PAddr) (vmem.Translation, []mem.PAddr) {
	return m.warm(m.ITLB, va, reads)
}

func (m *MMU) warm(l1 *tlb.TLB, va mem.VAddr, reads []mem.PAddr) (vmem.Translation, []mem.PAddr) {
	if tr, hit := l1.Lookup(va, false); hit {
		return tr, reads
	}
	if tr, hit := m.STLB.Lookup(va, false); hit {
		l1.InsertQuiet(va, tr)
		return tr, reads
	}
	tr, reads := m.PTW.WarmWalk(va, reads)
	m.STLB.InsertQuiet(va, tr)
	l1.InsertQuiet(va, tr)
	return tr, reads
}

// CheckInvariants verifies the whole translation path: every TLB level's
// entries against resolve (the reference page table), and the walker's
// in-flight and PSC bookkeeping at the given cycle. Returns the first
// violation, nil when clean.
func (m *MMU) CheckInvariants(resolve func(mem.VAddr) (vmem.Translation, bool), cycle uint64) error {
	for _, t := range []*tlb.TLB{m.DTLB, m.ITLB, m.STLB} {
		if err := t.CheckInvariants(resolve); err != nil {
			return err
		}
	}
	return m.PTW.CheckInvariants(cycle)
}

// SetTracer wires an event tracer into the MMU and its walker.
func (m *MMU) SetTracer(t *metrics.Tracer) {
	m.Trace = t
	m.PTW.Trace = t
}

// Flush empties all TLBs (trace replay between multi-core repetitions
// deliberately does NOT flush; this is for tests and explicit resets).
func (m *MMU) Flush() {
	m.DTLB.Flush()
	m.ITLB.Flush()
	m.STLB.Flush()
}

// Describe summarises the configuration for logs.
func (m *MMU) Describe() string {
	return fmt.Sprintf("dTLB %d-entry, iTLB %d-entry, sTLB %d-entry",
		m.DTLB.Config().Entries(), m.ITLB.Config().Entries(), m.STLB.Config().Entries())
}
