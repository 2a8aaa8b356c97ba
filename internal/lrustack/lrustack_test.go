package lrustack

import (
	"math/rand"
	"strings"
	"testing"
)

// refSet is the stamp-based reference: each valid way remembers the clock
// value of its last use, and the victim of a full set is the way with the
// smallest stamp.
type refSet struct {
	valid  []bool
	stamps []uint64
	clock  uint64
}

func (r *refSet) use(way int) {
	r.clock++
	r.stamps[way] = r.clock
}

// install returns the way a new line lands in: the first empty way, else
// the least recently used one.
func (r *refSet) install() int {
	for w, v := range r.valid {
		if !v {
			return w
		}
	}
	return r.victim()
}

func (r *refSet) victim() int {
	victim, oldest := 0, ^uint64(0)
	for w, s := range r.stamps {
		if s < oldest {
			victim, oldest = w, s
		}
	}
	return victim
}

func (r *refSet) full() bool {
	for _, v := range r.valid {
		if !v {
			return false
		}
	}
	return true
}

// runStackOps decodes ops into a set width and a sequence of hits, installs
// and flushes, applies each to a Stack and to the stamp reference, and
// after every step checks that the stack is a permutation and, whenever the
// set is full, that both pick the same victim and order every way alike.
func runStackOps(t *testing.T, ops []byte) {
	const maxSteps = 4096
	if len(ops) == 0 {
		return
	}
	ways := 1 + int(ops[0]%MaxWays)
	ops = ops[1:min(len(ops), 1+maxSteps)]
	s := New(ways)
	ref := refSet{valid: make([]bool, ways), stamps: make([]uint64, ways)}
	for i, b := range ops {
		switch op, way := b>>6, int(b&0xF)%ways; op {
		case 0, 1: // a hit on a resident way
			if ref.valid[way] {
				ref.use(way)
				s.Touch(way)
			}
		case 2: // an install
			w := ref.install()
			ref.valid[w] = true
			ref.use(w)
			s.Touch(w)
		case 3:
			if way == 0 { // a flush, rarer than the other operations
				clear(ref.valid)
				clear(ref.stamps)
			}
		}
		if err := s.Check(ways); err != nil {
			t.Fatalf("step %d (op %#x, %d ways): %v", i, b, ways, err)
		}
		if !ref.full() {
			continue
		}
		if got, want := s.Victim(ways), ref.victim(); got != want {
			t.Fatalf("step %d (op %#x, %d ways): victim %d, reference %d", i, b, ways, got, want)
		}
		for p := 1; p < ways; p++ {
			newer, older := int(s>>(4*(p-1)))&0xF, int(s>>(4*p))&0xF
			if ref.stamps[newer] <= ref.stamps[older] {
				t.Fatalf("step %d (%d ways): way %d at position %d is older than way %d below it", i, ways, newer, p-1, older)
			}
		}
	}
}

// stackOpSeqs are the random sequences the reference test runs and the fuzz
// target starts from, one per set width.
func stackOpSeqs() [][]byte {
	var seqs [][]byte
	for ways := 1; ways <= MaxWays; ways++ {
		rng := rand.New(rand.NewSource(int64(ways)))
		ops := make([]byte, 1+1000)
		rng.Read(ops)
		ops[0] = byte(ways - 1)
		seqs = append(seqs, ops)
	}
	return seqs
}

func TestStackMatchesStampReference(t *testing.T) {
	for _, ops := range stackOpSeqs() {
		runStackOps(t, ops)
	}
}

func FuzzLRUStack(f *testing.F) {
	for _, ops := range stackOpSeqs() {
		f.Add(ops)
	}
	f.Fuzz(runStackOps)
}

// TestCheckRejects covers the out-of-range way id, which the cache and TLB
// mutation cases (both duplicates) do not reach.
func TestCheckRejects(t *testing.T) {
	for _, tc := range []struct {
		s    Stack
		ways int
		want string
	}{
		{0x3211, 4, "appears twice"},
		{0x3240, 4, "holds way 4"},
	} {
		if err := tc.s.Check(tc.ways); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("Check(%#x, %d) = %v, want %q", uint64(tc.s), tc.ways, err, tc.want)
		}
	}
}
