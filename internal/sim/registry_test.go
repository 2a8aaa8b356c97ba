package sim

import (
	"slices"
	"testing"

	"repro/internal/prefetch"
)

// conformanceStream is a deterministic demand stream: eight PCs, each
// walking its own region with its own stride, so every engine sees
// repeating deltas, page crossings and a mix of hits and misses.
func conformanceStream(n int) []prefetch.Access {
	out := make([]prefetch.Access, n)
	var pos [8]uint64
	x := uint64(0x9E3779B97F4A7C15)
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := x % 8
		pos[k] += (k%4 + 1) * 64
		if x%97 == 0 {
			pos[k] += 1 << 16 // an occasional jump to a distant page
		}
		out[i] = prefetch.Access{
			Addr:  0x10000000 + k<<28 + pos[k],
			PC:    0x400000 + k*0x40,
			Cycle: uint64(i) * 3,
			Hit:   x%4 == 0,
		}
	}
	return out
}

// train feeds the stream to p the way the system does (fill-latency
// feedback on a miss, then Train) and returns every candidate emitted.
func train(p prefetch.Prefetcher, stream []prefetch.Access) []prefetch.Candidate {
	var out []prefetch.Candidate
	for _, a := range stream {
		if !a.Hit {
			p.FillLatency(20 + a.Cycle%200)
		}
		out = append(out, p.Train(a)...)
	}
	return out
}

// TestRegistryConformance builds every prefetcher entry at every level
// that accepts it, plus each ISO-Storage variant, and holds each to the
// same contract: it answers to its key, two fresh instances fed the same
// stream emit the same candidates, steady-state Train allocates nothing,
// and its metadata stays within the invariant checker's bounds.
func TestRegistryConformance(t *testing.T) {
	stream := conformanceStream(20_000)
	for name, e := range prefetchers {
		for _, level := range e.levels {
			isos := []bool{false}
			if level == "l1d" && e.iso != nil {
				isos = append(isos, true)
			}
			for _, iso := range isos {
				build := func() prefetch.Prefetcher {
					p, err := newPrefetcher(level, name, iso)
					if err != nil || p == nil {
						t.Fatalf("%s@%s iso=%v: built %v, %v", name, level, iso, p, err)
					}
					return p
				}
				a, b := build(), build()
				if a.Name() != name {
					t.Errorf("%s@%s iso=%v: Name() = %q", name, level, iso, a.Name())
				}
				ca, cb := train(a, stream), train(b, stream)
				if len(ca) == 0 {
					t.Errorf("%s@%s iso=%v: no candidates from the conformance stream", name, level, iso)
				}
				if !slices.Equal(ca, cb) {
					t.Errorf("%s@%s iso=%v: two fresh instances diverged (%d vs %d candidates)", name, level, iso, len(ca), len(cb))
				}
				i := 0
				allocs := testing.AllocsPerRun(2_000, func() {
					a.Train(stream[i%len(stream)])
					i++
				})
				if allocs != 0 {
					t.Errorf("%s@%s iso=%v: %.2f allocs per steady-state Train", name, level, iso, allocs)
				}
				if err := prefetch.CheckInvariants(a); err != nil {
					t.Errorf("%s@%s iso=%v: %v", name, level, iso, err)
				}
			}
		}
	}
}

// TestRegistryNames: "" and "none" build nothing at every level, every
// policy builds alongside every L1D engine, and the name lists are the
// table keys.
func TestRegistryNames(t *testing.T) {
	levels := []string{"l1d", "l2c", "l1i"}
	total := 0
	for _, level := range levels {
		for _, name := range []string{"", "none"} {
			if p, err := newPrefetcher(level, name, true); p != nil || err != nil {
				t.Errorf("%q@%s: built %v, %v", name, level, p, err)
			}
		}
		names := PrefetcherNames(level)
		if !slices.IsSorted(names) {
			t.Errorf("%s names unsorted: %v", level, names)
		}
		total += len(names)
	}
	entries := 0
	for _, e := range prefetchers {
		entries += len(e.levels)
	}
	if total != entries {
		t.Errorf("name lists cover %d (name, level) pairs, the table has %d", total, entries)
	}
	if got := PolicyNames(); len(got) != len(policies) || !slices.IsSorted(got) {
		t.Errorf("PolicyNames() = %v", got)
	}
	for _, kind := range append(PolicyNames(), "") {
		for _, pf := range append(PrefetcherNames("l1d"), "none") {
			cfg := Config{Policy: PolicyKind(kind), L1DPrefetcher: pf}
			if p, err := newPolicy(cfg); err != nil || p == nil {
				t.Errorf("policy %q with %s: %v, %v", kind, pf, p, err)
			}
		}
	}
}
