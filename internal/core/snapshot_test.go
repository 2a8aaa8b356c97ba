package core

import "testing"

func TestSnapshotRoundTrip(t *testing.T) {
	src := newDripper(t)
	// Train a distinctive pattern.
	in := Input{PC: 0x400100, VA: 0x10000, Delta: 7}
	for i := 0; i < 30; i++ {
		_, tag := src.Decide(in)
		src.RecordIssue(uint64(i), tag)
		src.OnDemandHitPCB(uint64(i))
	}
	snap := src.Snapshot()
	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeFilterSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}

	dst := newDripper(t)
	if err := dst.Restore(decoded); err != nil {
		t.Fatal(err)
	}
	// The restored filter must make the same decision with the same weights.
	srcIssue, srcTag := src.Decide(in)
	dstIssue, dstTag := dst.Decide(in)
	if srcIssue != dstIssue {
		t.Fatal("restored filter decides differently")
	}
	for i := range srcTag.ProgIdx[:srcTag.NumProg] {
		if src.tables[i].Weight(int(srcTag.ProgIdx[i])) != dst.tables[i].Weight(int(dstTag.ProgIdx[i])) {
			t.Fatal("restored weights differ")
		}
	}
}

func TestRestoreRejectsMismatch(t *testing.T) {
	berti := newDripper(t)
	bop, err := NewFilter(DefaultDripperConfig("bop")) // different program feature
	if err != nil {
		t.Fatal(err)
	}
	if err := bop.Restore(berti.Snapshot()); err == nil {
		t.Fatal("cross-config restore accepted")
	}

	small, err := NewFilter(func() Config {
		c := DefaultDripperConfig("berti")
		c.WTEntries = 64
		return c
	}())
	if err != nil {
		t.Fatal(err)
	}
	if err := small.Restore(berti.Snapshot()); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	f := newDripper(t)
	snap := f.Snapshot()
	_, tag := f.Decide(Input{PC: 1, VA: 2, Delta: 3})
	for i := 0; i < 10; i++ {
		f.RecordIssue(uint64(i), tag)
		f.OnDemandHitPCB(uint64(i))
	}
	// Later training must not leak into the earlier snapshot.
	for _, w := range snap.WeightTables {
		for _, v := range w {
			if v != 0 {
				t.Fatal("snapshot shares storage with the live filter")
			}
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeFilterSnapshot([]byte("junk")); err == nil {
		t.Fatal("garbage decoded")
	}
}
