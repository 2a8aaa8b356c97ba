// Package prefetch implements the hardware prefetchers the paper evaluates:
// Berti (local deltas with timeliness, MICRO'22), IPCP (instruction-pointer
// classifier, ISCA'20) and BOP (best-offset, HPCA'16) at the L1D, SPP
// (lookahead signature-path, MICRO'16) beside IPCP and BOP at the L2C
// (§V-B7), next-line and FNL+MMA at the L1I, and the FDP throttle that
// wraps an L1D engine (the §VI prefetch-management baseline).
//
// Prefetchers are address-space agnostic: they observe byte addresses and
// emit candidate target addresses. The simulator instantiates them over
// virtual addresses at the L1D (where page-cross filtering applies) and
// over physical addresses at the L2C (where candidates are clamped to the
// physical page, as PIPT prefetchers must be, §II-A2).
package prefetch

import "repro/internal/mem"

// Access is one demand access observed by a prefetcher.
type Access struct {
	// Addr is the byte address of the access (virtual at L1D, physical at
	// lower levels).
	Addr uint64
	// PC is the program counter of the load/store.
	PC uint64
	// Cycle is the core cycle of the access.
	Cycle uint64
	// Hit reports whether the access hit in the cache the prefetcher
	// serves.
	Hit bool
}

// Candidate is a prefetch the engine wants issued.
type Candidate struct {
	// Target is the byte address of the line to prefetch.
	Target uint64
	// Delta is the displacement from the triggering access in cache lines.
	// It is the program feature the paper's DRIPPER filter hashes.
	Delta int64
	// Meta is optional engine-specific metadata (Berti: delta confidence,
	// BOP: round score, IPCP: class). The paper notes (§III-D1) that
	// features exploiting prefetcher metadata can sharpen a Page-Cross
	// Filter; the MOKA "Meta" features consume this value.
	Meta uint64
}

// CrossesPage reports whether the candidate's target is in a different 4KB
// page than the triggering address.
func (c Candidate) CrossesPage(trigger uint64) bool {
	return c.Target>>mem.PageBits != trigger>>mem.PageBits
}

// Prefetcher is a prefetch engine.
type Prefetcher interface {
	// Name identifies the engine ("berti", "ipcp", "bop", ...).
	Name() string
	// Train observes a demand access and returns the prefetch candidates
	// it wants issued, in priority order. The returned slice is a scratch
	// buffer owned by the engine, valid only until its next Train call;
	// callers must consume (or copy) it synchronously.
	Train(a Access) []Candidate
	// FillLatency feeds back an observed demand-miss fill latency; engines
	// that estimate timeliness (Berti) consume it, others ignore it.
	FillLatency(lat uint64)
}

// lineOf returns the cache-line index of a byte address.
func lineOf(addr uint64) int64 { return int64(addr >> mem.LineBits) }

// targetOf converts a line index back to a byte address, returning ok=false
// on underflow (prefetch below address zero is meaningless).
func targetOf(line int64) (uint64, bool) {
	if line < 0 {
		return 0, false
	}
	return uint64(line) << mem.LineBits, true
}

// NopLatency can be embedded by engines that ignore latency feedback.
type NopLatency struct{}

// FillLatency implements Prefetcher.
func (NopLatency) FillLatency(uint64) {}
