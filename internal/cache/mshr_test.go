package cache

import (
	"math/rand"
	"slices"
	"testing"
)

// refMSHRFile is the reference model of the MSHR file: the linear-scan
// file the indexed one replaced. Lookup scans the line row, a lost release
// is a flag on the entry, and the sweep reads the value entries.
type refMSHRFile struct {
	entries  []refMSHR
	lines    []uint64
	minReady uint64

	leakEveryN, releases uint64
}

type refMSHR struct {
	mshr
	leaked bool
}

func (f *refMSHRFile) find(line uint64) int {
	for i, l := range f.lines {
		if l == line {
			return i
		}
	}
	return -1
}

func (f *refMSHRFile) alloc(line uint64, e mshr) {
	f.entries = append(f.entries, refMSHR{mshr: e})
	f.lines = append(f.lines, line)
	f.minReady = min(f.minReady, e.ready)
}

func (f *refMSHRFile) reissue(i int, e mshr) {
	f.entries[i] = refMSHR{mshr: e}
	f.minReady = min(f.minReady, e.ready)
}

func (f *refMSHRFile) retire(i int) {
	last := len(f.entries) - 1
	f.entries[i] = f.entries[last]
	f.lines[i] = f.lines[last]
	f.entries = f.entries[:last]
	f.lines = f.lines[:last]
}

func (f *refMSHRFile) sweep(cycle uint64) {
	if cycle < f.minReady {
		return
	}
	low := ^uint64(0)
	for i := 0; i < len(f.entries); {
		e := &f.entries[i]
		if e.leaked {
			i++
			continue
		}
		if e.ready <= cycle {
			if n := f.leakEveryN; n > 0 {
				f.releases++
				if f.releases%n == 0 {
					e.leaked = true
					i++
					continue
				}
			}
			f.retire(i)
			continue
		}
		low = min(low, e.ready)
		i++
	}
	f.minReady = low
}

func (f *refMSHRFile) earliest() uint64 {
	low := ^uint64(0)
	for _, e := range f.entries {
		low = min(low, e.ready)
	}
	return low
}

func (f *refMSHRFile) flush() {
	f.entries, f.lines = f.entries[:0], f.lines[:0]
	f.minReady = ^uint64(0)
}

// runMSHROps decodes ops into a sequence of MSHR-file operations — allocate
// or re-issue in place, sweep forwards and backwards in time, change the
// injected leak rate, flush — and applies each to a fresh filtered file and
// to the reference, comparing every observable after every step: entries
// and lines in file order, which entries leaked, the retirement bound, the
// earliest completion, the check verdict, a lookup of every held line and
// of the step's own line.
func runMSHROps(t *testing.T, ops []byte) {
	// A line space larger than the file makes filter collisions common;
	// leaks grow the file past its capacity.
	const capacity, lineSpace, maxSteps = 8, 200, 2000
	ops = ops[:min(len(ops), 3*maxSteps)]
	f := newMSHRFile(capacity)
	ref := refMSHRFile{minReady: ^uint64(0)}
	var now uint64 = 1000
	arg := func(i int) byte {
		if i < len(ops) {
			return ops[i]
		}
		return 0
	}
	for pc := 0; pc < len(ops); pc += 3 {
		op, a, b := ops[pc]%8, arg(pc+1), arg(pc+2)
		line := uint64(a) % lineSpace
		if a >= lineSpace {
			line = uint64(a) << 40 // far-apart lines
		}
		switch op {
		case 0, 1, 2: // a fill: re-issued in place when its line is held
			now += uint64(b % 8)
			e := mshr{issue: now, ready: now + 1 + uint64(b)*3}
			if i := ref.find(line); i >= 0 {
				ref.reissue(i, e)
				f.reissue(f.find(line), e)
			} else if len(ref.entries) < 4*capacity {
				ref.alloc(line, e)
				f.alloc(line, e)
			}
		case 3, 4: // time moves forward
			now += uint64(a) * uint64(b%4+1)
			ref.sweep(now)
			f.sweep(now)
		case 5: // a sweep at an earlier cycle
			back := min(now, uint64(a)*8)
			ref.sweep(now - back)
			f.sweep(now - back)
		case 6:
			ref.leakEveryN = uint64(a % 4)
			f.leakEveryN = ref.leakEveryN
		case 7:
			if a < 32 {
				ref.flush()
				f.flush()
			}
		}
		if err := f.check("fuzz", 1<<20, 0); err != nil {
			t.Fatalf("step %d (op %d): %v", pc/3, op, err)
		}
		if f.len() != len(ref.entries) || !slices.Equal(f.lines, ref.lines) {
			t.Fatalf("step %d (op %d): lines %v, reference %v", pc/3, op, f.lines, ref.lines)
		}
		for i, e := range ref.entries {
			if f.entries[i] != e.mshr || (f.ready[i] == leakedReady) != e.leaked {
				t.Fatalf("step %d (op %d): entry %d = %+v leaked %v, reference %+v", pc/3, op, i, f.entries[i], f.ready[i] == leakedReady, e)
			}
		}
		if f.minReady != ref.minReady || f.earliest() != ref.earliest() {
			t.Fatalf("step %d (op %d): minReady %d earliest %d, reference %d %d", pc/3, op, f.minReady, f.earliest(), ref.minReady, ref.earliest())
		}
		for _, l := range append(ref.lines, line) {
			if got, want := f.find(l), ref.find(l); got != want {
				t.Fatalf("step %d (op %d): find(%#x) = %d, reference %d", pc/3, op, l, got, want)
			}
		}
	}
}

// mshrOpSeqs are the random operation sequences the reference-model test
// runs and the fuzz target starts from.
func mshrOpSeqs() [][]byte {
	var seqs [][]byte
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 3*600)
		rng.Read(ops)
		seqs = append(seqs, ops)
	}
	return seqs
}

func TestMSHRFileMatchesReference(t *testing.T) {
	for _, ops := range mshrOpSeqs() {
		runMSHROps(t, ops)
	}
}

func FuzzMSHRFile(f *testing.F) {
	for _, ops := range mshrOpSeqs() {
		f.Add(ops)
	}
	f.Fuzz(runMSHROps)
}

// TestCheckInvariantsCatchesIndexDesync corrupts the MSHR file's presence
// filter and its ready row behind the file's back.
func TestCheckInvariantsCatchesIndexDesync(t *testing.T) {
	c := smallCache(t, &fakeLower{latency: 1000})
	c.Access(load(0x1000), 0)
	*c.mshrs.counter(c.mshrs.lines[0]) = 0 // the held line reads absent
	checkAfter(t, c, 10, "mshr-index-desync:")

	c = smallCache(t, &fakeLower{latency: 1000})
	c.Access(load(0x1000), 0)
	*c.mshrs.counter(c.mshrs.lines[0] + 1)++
	checkAfter(t, c, 10, "mshr-index-desync:")

	c = smallCache(t, &fakeLower{latency: 1000})
	c.Access(load(0x1000), 0)
	c.mshrs.ready[0]++
	checkAfter(t, c, 10, "mshr-index-desync:")
}
