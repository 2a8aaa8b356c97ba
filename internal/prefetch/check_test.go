package prefetch

import (
	"strings"
	"testing"
)

func TestCheckInvariants(t *testing.T) {
	// Engines without checkable metadata (and nil) pass trivially.
	for _, p := range []Prefetcher{nil, NewSPP(), NewIPCP()} {
		if err := CheckInvariants(p); err != nil {
			t.Fatalf("engine %T violates: %v", p, err)
		}
	}
	if err := CheckInvariants(NewThrottle(NewBOP())); err != nil {
		t.Fatalf("fresh throttled BOP violates: %v", err)
	}

	t.Run("fdp-level-range", func(t *testing.T) {
		th := NewThrottle(NewBerti())
		th.level = fdpLevels + 1
		if err := CheckInvariants(th); err == nil || !strings.HasPrefix(err.Error(), "fdp-level-range:") {
			t.Fatalf("CheckInvariants = %v", err)
		}
	})
	t.Run("throttle-recurses-into-engine", func(t *testing.T) {
		b := NewBOP()
		b.scores[0] = bopScoreMax + 1
		if err := CheckInvariants(NewThrottle(b)); err == nil || !strings.HasPrefix(err.Error(), "bop-score-bounds:") {
			t.Fatalf("CheckInvariants = %v", err)
		}
	})
	t.Run("bop-test-index", func(t *testing.T) {
		b := NewBOP()
		b.testIdx = len(bopOffsets)
		if err := CheckInvariants(b); err == nil || !strings.HasPrefix(err.Error(), "bop-test-index:") {
			t.Fatalf("CheckInvariants = %v", err)
		}
	})
	t.Run("bop-round-length", func(t *testing.T) {
		b := NewBOP()
		b.roundLen = bopRoundMax + 1
		if err := CheckInvariants(b); err == nil || !strings.HasPrefix(err.Error(), "bop-round-length:") {
			t.Fatalf("CheckInvariants = %v", err)
		}
	})
	t.Run("berti-bounds", func(t *testing.T) {
		be := NewBerti()
		be.table[0].histPos = bertiHistoryLen
		if err := CheckInvariants(be); err == nil || !strings.HasPrefix(err.Error(), "berti-hist-pos:") {
			t.Fatalf("CheckInvariants = %v", err)
		}
		be = NewBerti()
		be.table[0].delta[0] = 4
		be.table[0].conf[0] = bertiConfMax + 1
		if err := CheckInvariants(be); err == nil || !strings.HasPrefix(err.Error(), "berti-conf-bounds:") {
			t.Fatalf("CheckInvariants = %v", err)
		}
		be = NewBerti()
		be.table[0].delta[0] = bertiMaxDelta + 1 // delta 0 marks an empty slot
		if err := CheckInvariants(be); err == nil || !strings.HasPrefix(err.Error(), "berti-delta-bounds:") {
			t.Fatalf("CheckInvariants = %v", err)
		}
		be = NewBerti()
		for _, j := range []int{3, 9} {
			be.table[0].delta[j], be.table[0].conf[j] = -2, 5
		}
		if err := CheckInvariants(be); err == nil || !strings.HasPrefix(err.Error(), "berti-duplicate-delta:") {
			t.Fatalf("CheckInvariants = %v", err)
		}
		be = NewBerti()
		be.table[0].conf[7] = bertiIssueConf
		if err := CheckInvariants(be); err == nil || !strings.HasPrefix(err.Error(), "berti-empty-conf:") {
			t.Fatalf("CheckInvariants = %v", err)
		}
	})
}
