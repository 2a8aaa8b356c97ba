package core

import (
	"testing"
	"testing/quick"
)

// randomInput derives a filter input from three words.
func randomInput(a, b, c uint64) Input {
	return Input{
		PC: a, VA: b, Delta: int64(c%512) - 256,
		PrevVA1: b ^ 0x1111, PrevVA2: b ^ 0x2222,
		PrevPC1: a ^ 0x3333, PrevPC2: a ^ 0x4444,
		FirstPageAccess: c&1 == 1,
		Meta:            c >> 32,
	}
}

// Decide must be pure: calling it repeatedly without intervening training
// returns the same verdict and the same tag.
func TestDecideIsPure(t *testing.T) {
	f := newDripper(t)
	prop := func(a, b, c uint64) bool {
		in := randomInput(a, b, c)
		i1, t1 := f.Decide(in)
		i2, t2 := f.Decide(in)
		return i1 == i2 && t1 == t2
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Positive training must never flip an issuing input to discarding (with a
// fixed threshold and no other training).
func TestPositiveTrainingMonotone(t *testing.T) {
	prop := func(a, b, c uint64, reps uint8) bool {
		thr := -2
		cfg := DefaultDripperConfig("berti")
		cfg.StaticThreshold = &thr
		f, err := NewFilter(cfg)
		if err != nil {
			return false
		}
		in := randomInput(a, b, c)
		issueBefore, tag := f.Decide(in)
		for i := 0; i < int(reps%20)+1; i++ {
			f.RecordIssue(uint64(i), tag)
			f.OnDemandHitPCB(uint64(i))
		}
		issueAfter, _ := f.Decide(in)
		// issue may go false→true but never true→false.
		return !issueBefore || issueAfter
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Negative training must never flip a discarding input to issuing.
func TestNegativeTrainingMonotone(t *testing.T) {
	prop := func(a, b, c uint64, reps uint8) bool {
		thr := -2
		cfg := DefaultDripperConfig("berti")
		cfg.StaticThreshold = &thr
		f, err := NewFilter(cfg)
		if err != nil {
			return false
		}
		in := randomInput(a, b, c)
		issueBefore, tag := f.Decide(in)
		for i := 0; i < int(reps%20)+1; i++ {
			f.RecordIssue(uint64(i), tag)
			f.OnEvictPCB(uint64(i), false)
		}
		issueAfter, _ := f.Decide(in)
		return issueBefore || !issueAfter
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// The update buffers never exceed capacity and Take removes exactly the
// inserted key, under random operation sequences.
func TestUpdateBufferInvariants(t *testing.T) {
	prop := func(ops []uint16) bool {
		b := NewUpdateBuffer(4)
		for _, op := range ops {
			key := uint64(op % 64)
			if op&0x8000 != 0 {
				b.Insert(key, progTag(int32(op)))
			} else {
				b.Take(key)
			}
			if b.Len() > b.Cap() {
				return false
			}
		}
		// A freshly inserted key is retrievable exactly once.
		b.Insert(999, progTag(1))
		if _, ok := b.Take(999); !ok {
			return false
		}
		_, ok := b.Take(999)
		return !ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Thresholds stay within the configured ladder no matter what state
// sequence the adaptive scheme observes.
func TestThresholdStaysOnLadder(t *testing.T) {
	f := newDripper(t)
	levels := map[int]bool{}
	for _, l := range DefaultAdaptiveConfig().Levels {
		levels[l] = true
	}
	prop := func(useful, useless uint16, ipcMilli uint16, llcRate uint8) bool {
		f.Tick(SystemState{
			PGCUseful:   uint64(useful),
			PGCUseless:  uint64(useless),
			IPC:         float64(ipcMilli) / 1000,
			LLCMissRate: float64(llcRate) / 255,
			LLCMPKI:     float64(llcRate),
		})
		return levels[f.Threshold()]
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Meta features must consume the Meta input.
func TestMetaFeatures(t *testing.T) {
	for _, name := range []string{"Meta", "PC^Meta", "Delta^Meta"} {
		f, err := LookupProgramFeature(name)
		if err != nil {
			t.Fatal(err)
		}
		a := f.Extract(Input{PC: 5, Delta: 3, Meta: 100})
		b := f.Extract(Input{PC: 5, Delta: 3, Meta: 200})
		if a == b {
			t.Errorf("feature %s ignores Meta", name)
		}
	}
}
