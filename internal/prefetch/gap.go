package prefetch

// GapResetter is implemented by engines that carry short-lived cross-access
// correlation state: last-seen addresses, per-IP access histories, active
// region generations, in-flight signature paths. When the interval sampler
// fast-forwards a trace gap functionally, that state refers to accesses
// tens of thousands of instructions in the past; pairing it with the first
// post-gap accesses fabricates deltas the program never exhibited, and
// those bogus deltas land disproportionately outside the trigger's page —
// inflating exactly the page-cross rate this simulator exists to measure.
// GapReset clears the volatile correlation state while leaving learned
// tables (delta confidences, offset scores, promoted patterns, usefulness
// counters) intact, mirroring what the engine would look like after an
// out-of-context excursion of unbounded length.
type GapResetter interface {
	GapReset()
}

// GapReset implements GapResetter: per-IP line histories are cleared, the
// learned per-IP delta sets (and the fill-latency EWMA) survive.
func (b *Berti) GapReset() {
	for i := range b.table {
		b.table[i].hist = [bertiHistoryLen]bertiHistEntry{}
		b.table[i].histPos = 0
	}
}

// GapReset implements GapResetter: last-line state and the region tracker
// are cleared; per-IP stride confidences and the CPLX table survive.
func (p *IPCP) GapReset() {
	for i := range p.table {
		p.table[i].lastLine = 0
	}
	p.regions = [ipcpRegionTable]ipcpRegion{}
}

// GapReset implements GapResetter: the per-page signature trackers are
// cleared (the in-flight path is meaningless across a gap); the pattern
// table survives.
func (s *SPP) GapReset() {
	s.st = [sppSTSize]sppSTEntry{}
}

// GapReset implements GapResetter: the recent-requests table is cleared so
// stale lines cannot credit offset scores; scores, the current best offset
// and the round position survive.
func (b *BOP) GapReset() {
	for i := range b.rr {
		b.rr[i] = 0
	}
}

// GapReset implements GapResetter: the successor-training anchor is
// dropped; next-line usefulness counters and the MMA table survive.
func (p *FNLMMA) GapReset() {
	p.haveLast = false
}

// GapReset implements GapResetter: forwarded to the wrapped engine; the
// throttle's own accuracy interval is genuine learned feedback and
// survives.
func (t *Throttle) GapReset() {
	GapReset(t.Engine)
}

// GapReset invokes p's GapReset when the engine carries volatile state;
// engines without (NextLine) and nil prefetchers are no-ops.
func GapReset(p Prefetcher) {
	if r, ok := p.(GapResetter); ok {
		r.GapReset()
	}
}
