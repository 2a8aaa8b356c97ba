package tlb

import (
	"strings"
	"testing"

	"repro/internal/lrustack"
	"repro/internal/mem"
	"repro/internal/vmem"
)

func TestCheckInvariants(t *testing.T) {
	// The reference page table: an identity-shifted mapping for a handful of
	// pages.
	table := map[uint64]vmem.Translation{}
	resolve := func(va mem.VAddr) (vmem.Translation, bool) {
		tr, ok := table[va.PageID()]
		return tr, ok
	}
	mapPage := func(vpn uint64, base mem.PAddr) mem.VAddr {
		table[vpn] = tr4K(base)
		return mem.VAddr(vpn << mem.PageBits)
	}

	t.Run("clean", func(t *testing.T) {
		tl := newTLB(t, 4, 4)
		for i := uint64(0); i < 8; i++ {
			va := mapPage(0x100+i, mem.PAddr((0x200+i)<<mem.PageBits))
			tl.Insert(va, table[0x100+i], false)
		}
		if err := tl.CheckInvariants(resolve); err != nil {
			t.Fatalf("healthy TLB violates: %v", err)
		}
	})
	t.Run("tlb-stale-pte", func(t *testing.T) {
		tl := newTLB(t, 4, 4)
		tl.InjectStalePTE(1)
		va := mapPage(0x300, mem.PAddr(0x400<<mem.PageBits))
		tl.Insert(va, table[0x300], false)
		if err := tl.CheckInvariants(resolve); err == nil || !strings.HasPrefix(err.Error(), "tlb-stale-pte:") {
			t.Fatalf("CheckInvariants = %v", err)
		}
	})
	t.Run("tlb-unmapped-page", func(t *testing.T) {
		tl := newTLB(t, 4, 4)
		va := mapPage(0x500, mem.PAddr(0x600<<mem.PageBits))
		tl.Insert(va, table[0x500], false)
		delete(table, uint64(0x500))
		if err := tl.CheckInvariants(resolve); err == nil || !strings.HasPrefix(err.Error(), "tlb-unmapped-page:") {
			t.Fatalf("CheckInvariants = %v", err)
		}
	})
	t.Run("tlb-duplicate-entry", func(t *testing.T) {
		tl := newTLB(t, 4, 4)
		va := mapPage(0x700, mem.PAddr(0x800<<mem.PageBits))
		tl.Insert(va, table[0x700], false)
		// Duplicate the entry into a second way of its set behind Insert's
		// back, key included, so the duplicate check, not the desync sweep,
		// fires.
		var dup bool
		for i, k := range tl.keys {
			if j := i ^ 1; k != 0 && tl.keys[j] == 0 {
				tl.entries[j], tl.keys[j] = tl.entries[i], k
				dup = true
				break
			}
		}
		if !dup {
			t.Fatal("could not duplicate the entry")
		}
		if err := tl.CheckInvariants(resolve); err == nil || !strings.HasPrefix(err.Error(), "tlb-duplicate-entry:") {
			t.Fatalf("CheckInvariants = %v", err)
		}
	})
	// The set's recency word must stay a permutation of its way ids, both
	// when a nibble is overwritten with another way's id and when a touch
	// removes the wrong position (way 2 moves to MRU, way 1 is lost).
	for _, tc := range []struct {
		name   string
		mutate func(s lrustack.Stack) lrustack.Stack
	}{
		{"recency-perm-duplicated-nibble", func(s lrustack.Stack) lrustack.Stack { return s&^(0xF<<12) | (s&0xF)<<12 }},
		{"recency-perm-wrong-nibble-moved", func(s lrustack.Stack) lrustack.Stack { return s&^0xFF | (s&0xF)<<4 | 2 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tl := newTLB(t, 4, 4)
			va := mapPage(0xb00, mem.PAddr(0xc00<<mem.PageBits))
			tl.Insert(va, table[0xb00], false)
			set := tl.setOf(0xb00)
			tl.stacks[set] = tc.mutate(tl.stacks[set])
			if err := tl.CheckInvariants(resolve); err == nil || !strings.HasPrefix(err.Error(), "recency-perm:") {
				t.Fatalf("CheckInvariants = %v", err)
			}
		})
	}
	t.Run("tlb-key-desync", func(t *testing.T) {
		tl := newTLB(t, 4, 4)
		va := mapPage(0x900, mem.PAddr(0xa00<<mem.PageBits))
		tl.Insert(va, table[0x900], false)
		// Mutate the entry behind the packed key mirror's back.
		for i, k := range tl.keys {
			if k != 0 {
				tl.entries[i].vpn ^= 1
			}
		}
		if err := tl.CheckInvariants(resolve); err == nil || !strings.HasPrefix(err.Error(), "tlb-key-desync:") {
			t.Fatalf("CheckInvariants = %v", err)
		}
	})
}
