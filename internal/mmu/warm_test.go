package mmu

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/metrics"
)

// TestWarmFillsTranslationPathQuietly checks the functional-warmup contract:
// WarmData/WarmInstr leave the TLB hierarchy in the state a demand
// translation would leave it in, while moving no statistics at all.
func TestWarmFillsTranslationPathQuietly(t *testing.T) {
	mm, as, _ := newMMU(t)
	reg := metrics.NewRegistry()
	register(reg, mm)

	dva := mem.VAddr(0x7000_1111_2000)
	iva := mem.VAddr(0x0000_5555_3000)

	tr, reads := mm.WarmData(dva, nil)
	if want := as.Translate(dva); tr != want {
		t.Fatalf("WarmData translation = %+v, want %+v", tr, want)
	}
	// A cold walk reports every page-table read it would have issued, for
	// the caller to install; the walker itself touches no cache.
	if len(reads) == 0 {
		t.Fatal("cold WarmData reported no page-table reads")
	}
	// Re-warming hits the freshly filled dTLB and returns the same mapping
	// with no walk, so nothing is appended.
	if tr, again := mm.WarmData(dva, reads); tr != as.Translate(dva) || len(again) != len(reads) {
		t.Fatalf("repeat WarmData = %+v with %d reads, want %+v with %d", tr, len(again), as.Translate(dva), len(reads))
	}
	if tr, _ := mm.WarmInstr(iva, nil); tr != as.Translate(iva) {
		t.Fatalf("WarmInstr translation = %+v, want %+v", tr, as.Translate(iva))
	}
	// The data warm populated the shared sTLB, so warming the same page on
	// the instruction side exercises the sTLB-hit fill into the iTLB.
	if tr, reads := mm.WarmInstr(dva, nil); tr != as.Translate(dva) || len(reads) != 0 {
		t.Fatalf("cross-path WarmInstr = %+v with %d reads, want %+v with none", tr, len(reads), as.Translate(dva))
	}

	// Residency gauges (TLB occupancy) legitimately move; every event
	// counter — hits, misses, walks, PSC probes — must stay untouched.
	for _, m := range reg.Snapshot().Metrics {
		if m.Kind == metrics.KindCounter && m.Value != 0 {
			t.Errorf("warm accesses moved statistic %s = %d, want 0", m.Name, m.Value)
		}
	}

	// A demand access after warmup must hit the L1 TLB in one cycle: the
	// whole point of the warm path is that the sampler's detailed intervals
	// start with the residency a continuously detailed run would have.
	if r := mm.TranslateData(dva, 100); r.Source != SrcL1TLB || r.Ready != 101 {
		t.Fatalf("post-warm demand: source=%v ready=%d, want L1 TLB hit at 101", r.Source, r.Ready)
	}
	if r := mm.TranslateInstr(iva, 100); r.Source != SrcL1TLB || r.Ready != 101 {
		t.Fatalf("post-warm instr demand: source=%v ready=%d, want L1 TLB hit at 101", r.Source, r.Ready)
	}
	if !mm.Resident(dva) {
		t.Fatal("warmed page not Resident")
	}
}
