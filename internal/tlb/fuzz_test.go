package tlb

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/vmem"
)

// refTLB is the memo-free reference model of a TLB: one list of entries per
// set, most recently used first, keyed by (VPN, page-size kind), plus the
// statistics block. Lookups scan a set's list and move the hit to the
// front; fills refresh a resident key in place or push out the list's last
// entry.
type refTLB struct {
	sets, ways int
	lists      [][]Entry
	stats      stats.CacheStats
}

func (r *refTLB) setOf(vpn uint64) int { return int(vpn) & (r.sets - 1) }

// find returns the set of (vpn, kind) and its list index, -1 when absent.
func (r *refTLB) find(vpn uint64, kind mem.PageSizeKind) (set, i int) {
	set = r.setOf(vpn)
	return set, slices.IndexFunc(r.lists[set], func(e Entry) bool { return e.VPN == vpn && e.Kind == kind })
}

func (r *refTLB) lookup(va mem.VAddr, demand bool) (vmem.Translation, bool) {
	if demand {
		r.stats.DemandAccesses++
	}
	set, i := r.find(va.PageID(), mem.Page4K)
	if i < 0 {
		set, i = r.find(va.LargePageID(), mem.Page2M)
	}
	if i < 0 {
		if demand {
			r.stats.DemandMisses++
		}
		return vmem.Translation{}, false
	}
	l := r.lists[set]
	e := l[i]
	copy(l[1:i+1], l[:i])
	if demand {
		r.stats.DemandHits++
		if e.Prefetch {
			r.stats.UsefulPrefetches++
			e.Prefetch = false
		}
	}
	l[0] = e
	return vmem.Translation{Base: e.Base, Kind: e.Kind}, true
}

func (r *refTLB) probe(va mem.VAddr) bool {
	_, i := r.find(va.PageID(), mem.Page4K)
	_, j := r.find(va.LargePageID(), mem.Page2M)
	return i >= 0 || j >= 0
}

func (r *refTLB) insert(va mem.VAddr, tr vmem.Translation, fromPrefetch, quiet bool) {
	vpn := va.PageID()
	if tr.Kind == mem.Page2M {
		vpn = va.LargePageID()
	}
	set, i := r.find(vpn, tr.Kind)
	l := r.lists[set]
	switch {
	case i >= 0:
		l = slices.Delete(l, i, i+1)
	case len(l) == r.ways:
		if v := l[len(l)-1]; !quiet {
			r.stats.Evictions++
			if v.Prefetch {
				r.stats.UselessPrefetches++
			}
		}
		l = l[:len(l)-1]
	}
	r.lists[set] = slices.Insert(l, 0, Entry{VPN: vpn, Kind: tr.Kind, Base: tr.Base, Prefetch: fromPrefetch})
	if !quiet && fromPrefetch {
		r.stats.PrefetchFills++
	}
}

// order returns set's valid entries, most recently used first, read from
// the set's LRU stack and key row.
func (t *TLB) order(set int) []Entry {
	var out []Entry
	for p := 0; p < t.cfg.Ways; p++ {
		i := set*t.cfg.Ways + int(uint64(t.stacks[set])>>(4*p))&0xF
		if t.keys[i] != 0 {
			e := &t.entries[i]
			out = append(out, Entry{VPN: e.vpn, Kind: e.kind, Base: e.base, Prefetch: e.prefetch})
		}
	}
	return out
}

// runTLBOps decodes ops into a TLB shape and a stream of demand and
// prefetch lookups, probes, fills (demand, prefetch and quiet, 4K and 2M)
// and flushes over 16 large pages of 16 small pages each, half of them on
// the last looked-up page (the repeat lookups the hit memo serves, and the
// MMU's miss, fill, retry), and
// checks the TLB against refTLB after every step: the same translation and
// hit, the same statistics and, in every set, the same entries in the same
// recency order.
func runTLBOps(t *testing.T, ops []byte) {
	const maxSteps = 2000
	if len(ops) < 1 {
		return
	}
	sets, ways := 1<<(ops[0]&3), 1+int(ops[0]>>2)%6
	ops = ops[1:min(len(ops), 1+3*maxSteps)]
	tl, err := New(Config{Name: "fuzz", Sets: sets, Ways: ways, Latency: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref := &refTLB{sets: sets, ways: ways, lists: make([][]Entry, sets)}
	var last byte
	for step := 0; len(ops) >= 3; step, ops = step+1, ops[3:] {
		op, p, b := ops[0], ops[1], ops[2]
		if op&0x20 != 0 { // half the steps revisit the last looked-up page
			p = last
		}
		va := mem.VAddr(uint64(p>>4)<<mem.LargePageBits | uint64(p&15)<<mem.PageBits | uint64(b)<<4)
		tr := vmem.Translation{Base: mem.PAddr(b) << mem.PageBits, Kind: mem.Page4K}
		if op&0x10 != 0 {
			tr = vmem.Translation{Base: mem.PAddr(b) << mem.LargePageBits, Kind: mem.Page2M}
		}
		if op&0xF < 8 { // a lookup
			last = p
		}
		switch op & 0xF {
		case 0, 1, 2, 3, 4, 5: // demand lookups
			gotTr, gotHit := tl.Lookup(va, true)
			wantTr, wantHit := ref.lookup(va, true)
			if gotTr != wantTr || gotHit != wantHit {
				t.Fatalf("step %d: demand lookup %#x = %+v %v, reference %+v %v", step, va, gotTr, gotHit, wantTr, wantHit)
			}
		case 6, 7: // prefetch translations
			gotTr, gotHit := tl.Lookup(va, false)
			wantTr, wantHit := ref.lookup(va, false)
			if gotTr != wantTr || gotHit != wantHit {
				t.Fatalf("step %d: prefetch lookup %#x = %+v %v, reference %+v %v", step, va, gotTr, gotHit, wantTr, wantHit)
			}
		case 8:
			if got, want := tl.Probe(va), ref.probe(va); got != want {
				t.Fatalf("step %d: probe %#x = %v, reference %v", step, va, got, want)
			}
		case 9, 10:
			tl.Insert(va, tr, false)
			ref.insert(va, tr, false, false)
		case 11, 12:
			tl.Insert(va, tr, true)
			ref.insert(va, tr, true, false)
		case 13, 14:
			tl.InsertQuiet(va, tr)
			ref.insert(va, tr, false, true)
		case 15:
			if op&0xE0 == 0 { // a flush, rarer than the other operations
				tl.Flush()
				clear(ref.lists)
			}
		}
		if *tl.Stats != ref.stats {
			t.Fatalf("step %d (op %#x): stats %+v, reference %+v", step, op, *tl.Stats, ref.stats)
		}
		for set := range sets {
			if got, want := tl.order(set), ref.lists[set]; !slices.Equal(got, want) {
				t.Fatalf("step %d (op %#x): set %d holds %+v, reference %+v", step, op, set, got, want)
			}
		}
	}
}

// tlbOpSeqs are FuzzTLB's seed corpus, which plain go test runs too: one
// random sequence per TLB shape.
func tlbOpSeqs() [][]byte {
	var seqs [][]byte
	for shape := 0; shape < 24; shape++ {
		rng := rand.New(rand.NewSource(int64(shape)))
		ops := make([]byte, 1+3*2000)
		rng.Read(ops)
		ops[0] = byte(shape)
		seqs = append(seqs, ops)
	}
	return seqs
}

func FuzzTLB(f *testing.F) {
	for _, ops := range tlbOpSeqs() {
		f.Add(ops)
	}
	f.Fuzz(runTLBOps)
}
