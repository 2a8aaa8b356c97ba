package prefetch

import (
	"math/rand"
	"slices"
	"testing"
)

// refBertiDelta and refBertiEntry are the record-based delta table the
// packed rows replaced: one {delta, conf, valid} record per slot.
type refBertiDelta struct {
	delta int64
	conf  int
	valid bool
}

type refBertiEntry struct {
	tag     uint64
	hist    [bertiHistoryLen]bertiHistEntry
	histPos int
	deltas  [bertiDeltasPerIP]refBertiDelta
}

// recordsOf returns the record form of a row entry's delta table.
func recordsOf(e *bertiIPEntry) *refBertiEntry {
	r := &refBertiEntry{}
	for j, d := range e.delta {
		r.deltas[j] = refBertiDelta{delta: int64(d), conf: int(e.conf[j]), valid: d != 0}
	}
	return r
}

// refBerti is the reference model of Berti's training: the record-based
// Train and bumpDelta the packed rows replaced, issuing through
// refBertiIssue.
type refBerti struct {
	table    []refBertiEntry
	missLat  uint64
	accesses uint64
	degree   int
}

func newRefBerti(entries int) *refBerti {
	return &refBerti{table: make([]refBertiEntry, entries), missLat: bertiDefaultMissL, degree: bertiMaxDegree}
}

func (b *refBerti) FillLatency(lat uint64) { b.missLat = (b.missLat*7 + lat) / 8 }

func (b *refBerti) Train(a Access) []Candidate {
	b.accesses++
	h := a.PC * 0x9E3779B97F4A7C15
	e := &b.table[(h>>16)%uint64(len(b.table))]
	if e.tag != a.PC {
		*e = refBertiEntry{tag: a.PC}
	}
	line := lineOf(a.Addr)
	for i := range e.hist {
		h := &e.hist[i]
		if !h.valid || h.line == line || a.Cycle-h.cycle < b.missLat {
			continue
		}
		d := line - h.line
		if d == 0 || d > bertiMaxDelta || d < -bertiMaxDelta {
			continue
		}
		b.bumpDelta(e, d)
	}
	e.hist[e.histPos] = bertiHistEntry{line: line, cycle: a.Cycle, valid: true}
	e.histPos = (e.histPos + 1) % bertiHistoryLen
	if b.accesses%bertiDecayPeriod == 0 {
		for t := range b.table {
			for j := range b.table[t].deltas {
				b.table[t].deltas[j].conf /= 2
			}
		}
	}
	return refBertiIssue(e, line, b.degree)
}

func (b *refBerti) bumpDelta(e *refBertiEntry, d int64) {
	var victim *refBertiDelta
	minConf := int(^uint(0) >> 1)
	for j := range e.deltas {
		s := &e.deltas[j]
		if s.valid && s.delta == d {
			if s.conf < bertiConfMax {
				s.conf++
			}
			return
		}
		if !s.valid {
			victim = s
			minConf = -1
			continue
		}
		if s.conf < minConf {
			victim = s
			minConf = s.conf
		}
	}
	if victim != nil && minConf < bertiIssueConf {
		*victim = refBertiDelta{delta: d, conf: 1, valid: true}
	}
}

// refBertiIssue is the reference model of Berti's issue selection: the
// round-per-candidate loop the single pass replaced. Each round takes the
// most confident delta at or above the threshold not yet issued, ties to
// the lower slot, and issue stops at the first target below zero.
func refBertiIssue(e *refBertiEntry, line int64, degree int) []Candidate {
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

// TestBertiTrainMatchesRecordReference drives the packed-row Berti and the
// record-based reference with the same random multi-PC streams and demands
// identical candidate lists on every call. The streams mix per-PC strides
// (confidence ties at saturation, which issue breaks by slot), random
// in-range jumps (slot replacement), far jumps (out-of-range deltas) and
// fill-latency feedback; they cross several decay periods, and the 8-entry
// table makes 24 PCs take over each other's direct-mapped slots.
func TestBertiTrainMatchesRecordReference(t *testing.T) {
	for _, entries := range []int{bertiTableSize, 8} {
		rng := rand.New(rand.NewSource(int64(entries)))
		b, ref := NewBertiSized(entries), newRefBerti(entries)
		pcs := make([]uint64, 24)
		lines := make([]int64, len(pcs))
		strides := make([]int64, len(pcs))
		for k := range pcs {
			pcs[k] = 0x400000 + uint64(k)*0x40
			lines[k] = int64(1000 + rng.Intn(1<<20))
			strides[k] = int64(rng.Intn(9) - 4)
		}
		var cycle uint64
		issued, k := 0, 0
		for i := 0; i < 6*bertiDecayPeriod; i++ {
			if rng.Intn(16) == 0 { // PCs run in bursts, so entries train between takeovers
				k = rng.Intn(len(pcs))
			}
			switch r := rng.Intn(100); {
			case r < 80:
				lines[k] += strides[k]
			case r < 97:
				lines[k] += int64(rng.Intn(2*bertiMaxDelta+65) - bertiMaxDelta - 32)
			default:
				lines[k] = int64(rng.Intn(1 << 22))
			}
			if lines[k] < 0 {
				lines[k] = 0
			}
			cycle += uint64(1 + rng.Intn(30))
			if rng.Intn(50) == 0 {
				lat := uint64(10 + rng.Intn(300))
				b.FillLatency(lat)
				ref.FillLatency(lat)
			}
			a := Access{PC: pcs[k], Addr: uint64(lines[k])<<6 | uint64(rng.Intn(64)), Cycle: cycle}
			got, want := b.Train(a), ref.Train(a)
			if !slices.Equal(got, want) {
				t.Fatalf("%d entries, access %d (pc %#x line %d):\n got %+v\nwant %+v", entries, i, a.PC, lines[k], got, want)
			}
			issued += len(got)
			if err := CheckInvariants(b); err != nil {
				t.Fatalf("%d entries, access %d: %v", entries, i, err)
			}
		}
		if issued < bertiDecayPeriod {
			t.Fatalf("%d entries: only %d candidates issued; the stream is degenerate", entries, issued)
		}
	}
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
		for j := range e.delta {
			conf := bertiIssueConf - 2 + rng.Intn(6) // ties and sub-threshold
			if d := deltas[j] - bertiMaxDelta; rng.Intn(4) != 0 && d != 0 {
				e.delta[j], e.conf[j] = int16(d), uint8(conf)
			}
		}
		line := int64(rng.Intn(3 * bertiMaxDelta)) // some targets below zero
		b.degree = rng.Intn(bertiDeltasPerIP + 3)
		got, want := b.issue(&e, line), refBertiIssue(recordsOf(&e), line, b.degree)
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
	for j, d := range []struct {
		delta int16
		conf  uint8
	}{
		{3, 5},
		{-9, 9},
		{7, 5},
		{1, 3}, // below the issue threshold
		{2, 9},
	} {
		e.delta[j], e.conf[j] = d.delta, d.conf
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
