package prefetch

import (
	"math/rand"
	"slices"
	"testing"
)

// refBertiIssue is the reference model of Berti's issue selection: the
// round-per-candidate loop the single pass replaced. Each round takes the
// most confident delta at or above the threshold not yet issued, ties to
// the lower slot, and issue stops at the first target below zero.
func refBertiIssue(e *bertiIPEntry, line int64, degree int) []Candidate {
	var out []Candidate
	for round := 0; round < degree; round++ {
		best := -1
		bestConf := bertiIssueConf - 1
		for j := range e.deltas {
			d := &e.deltas[j]
			if !d.valid || d.conf <= bestConf || slices.ContainsFunc(out, func(c Candidate) bool { return c.Delta == d.delta }) {
				continue
			}
			best, bestConf = j, d.conf
		}
		if best == -1 {
			break
		}
		t, ok := targetOf(line + e.deltas[best].delta)
		if !ok {
			break
		}
		out = append(out, Candidate{Target: t, Delta: e.deltas[best].delta, Meta: uint64(e.deltas[best].conf)})
	}
	return out
}

// TestBertiIssueMatchesReference pins the single-pass selection to the
// reference on entries with distinct deltas (as bumpDelta keeps them),
// crowded confidence ties, invalid slots, targets below address zero and
// degrees from 0 past the entry size.
func TestBertiIssueMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := NewBerti()
	for trial := 0; trial < 20_000; trial++ {
		var e bertiIPEntry
		deltas := rng.Perm(2 * bertiMaxDelta)
		for j := range e.deltas {
			e.deltas[j] = bertiDelta{
				delta: int64(deltas[j] - bertiMaxDelta),
				conf:  bertiIssueConf - 2 + rng.Intn(6), // ties and sub-threshold
				valid: rng.Intn(4) != 0,
			}
			if e.deltas[j].delta == 0 {
				e.deltas[j].valid = false
			}
		}
		line := int64(rng.Intn(3 * bertiMaxDelta)) // some targets below zero
		b.degree = rng.Intn(bertiDeltasPerIP + 3)
		got, want := b.issue(&e, line), refBertiIssue(&e, line, b.degree)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (degree %d, line %d):\n got %+v\nwant %+v", trial, b.degree, line, got, want)
		}
	}
}

// TestBertiIssueOrder pins the three rules by hand: confidence order with
// ties to the lower slot, the degree cap, and the stop at the first target
// below zero even when later candidates would be in range.
func TestBertiIssueOrder(t *testing.T) {
	var e bertiIPEntry
	for j, d := range []bertiDelta{
		{delta: 3, conf: 5, valid: true},
		{delta: -9, conf: 9, valid: true},
		{delta: 7, conf: 5, valid: true},
		{delta: 1, conf: 3, valid: true}, // below the issue threshold
		{delta: 2, conf: 9, valid: true},
	} {
		e.deltas[j] = d
	}
	deltas := func(cs []Candidate) []int64 {
		var out []int64
		for _, c := range cs {
			out = append(out, c.Delta)
		}
		return out
	}
	b := NewBerti()
	if got := deltas(b.issue(&e, 100)); !slices.Equal(got, []int64{-9, 2, 3, 7}) {
		t.Fatalf("order = %v, want [-9 2 3 7]", got)
	}
	b.degree = 3
	if got := deltas(b.issue(&e, 100)); !slices.Equal(got, []int64{-9, 2, 3}) {
		t.Fatalf("degree 3 = %v, want [-9 2 3]", got)
	}
	b.degree = bertiMaxDegree
	if got := deltas(b.issue(&e, 5)); len(got) != 0 {
		t.Fatalf("line 5 = %v, want nothing: the first target is below zero", got)
	}
}
