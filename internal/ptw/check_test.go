package ptw

import (
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/vmem"
)

func TestCheckInvariants(t *testing.T) {
	w, as := newWalker(t, &flatMem{latency: 10}, false)
	for i := 0; i < 16; i++ {
		va := mem.VAddr(uint64(i) << 21)
		w.Walk(va, uint64(i), false)
		_ = as.Translate(va)
		if err := w.CheckInvariants(uint64(i)); err != nil {
			t.Fatalf("healthy walker violates: %v", err)
		}
	}
	// All walks long complete: lazy gc must retire them before judging.
	if err := w.CheckInvariants(1 << 40); err != nil {
		t.Fatalf("post-completion check: %v", err)
	}

	t.Run("live-walks-not-flagged", func(t *testing.T) {
		w, _ := newWalker(t, &flatMem{latency: 10}, false)
		w.walks = append(w.walks, inflightWalk{ready: 1 << 40})
		w.walkVPNs = append(w.walkVPNs, 0xdef)
		if err := w.CheckInvariants(50); err != nil {
			t.Fatalf("live walk flagged: %v", err)
		}
	})
	t.Run("ptw-walk-leak", func(t *testing.T) {
		// What a broken swap-remove in gc leaves behind: a walk that was
		// ready by the last gc's cycle but is still in the walk file.
		w, _ := newWalker(t, &flatMem{latency: 10}, false)
		w.Walk(mem.VAddr(1<<21), 100, false)
		w.walks = append(w.walks, inflightWalk{ready: 60})
		w.walkVPNs = append(w.walkVPNs, 0xabc)
		if err := w.CheckInvariants(100); err == nil || !strings.HasPrefix(err.Error(), "ptw-walk-leak:") {
			t.Fatalf("CheckInvariants = %v", err)
		}
	})
	t.Run("ptw-inflight-overflow", func(t *testing.T) {
		w, _ := newWalker(t, &flatMem{latency: 10}, false)
		for i := 0; i <= w.cfg.MaxInflight; i++ {
			w.walks = append(w.walks, inflightWalk{ready: 1 << 40})
			w.walkVPNs = append(w.walkVPNs, uint64(i))
		}
		if err := w.CheckInvariants(0); err == nil || !strings.HasPrefix(err.Error(), "ptw-inflight-overflow:") {
			t.Fatalf("CheckInvariants = %v", err)
		}
	})
	t.Run("psc-duplicate", func(t *testing.T) {
		w, _ := newWalker(t, &flatMem{latency: 10}, false)
		p := w.pscs[vmem.LevelPD]
		p.tags[0], p.tags[1] = 42, 42
		if err := w.CheckInvariants(0); err == nil || !strings.HasPrefix(err.Error(), "psc-duplicate:") {
			t.Fatalf("CheckInvariants = %v", err)
		}
	})
}
