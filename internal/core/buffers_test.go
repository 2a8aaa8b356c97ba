package core

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// refUpdateBuffer is the reference model of UpdateBuffer: the linear-scan
// buffer the indexed one replaced. Insert scans the key row for the key
// and the highest-numbered free slot, then scans insertion stamps for the
// oldest entry when no slot is free; Take scans the key row.
type refUpdateBuffer struct {
	keys   []uint64
	stamps []uint64
	tags   []Tag
	clock  uint64
}

func newRefUpdateBuffer(capacity int) *refUpdateBuffer {
	keys := make([]uint64, capacity)
	for i := range keys {
		keys[i] = emptyKey
	}
	return &refUpdateBuffer{keys: keys, stamps: make([]uint64, capacity), tags: make([]Tag, capacity)}
}

func (b *refUpdateBuffer) Insert(key uint64, tag Tag) {
	b.clock++
	victim := -1
	for i, k := range b.keys {
		if k == key {
			b.tags[i] = tag
			b.stamps[i] = b.clock
			return
		}
		if k == emptyKey {
			victim = i
		}
	}
	if victim < 0 {
		oldest := ^uint64(0)
		for i, s := range b.stamps {
			if s < oldest {
				oldest, victim = s, i
			}
		}
	}
	b.keys[victim] = key
	b.stamps[victim] = b.clock
	b.tags[victim] = tag
}

func (b *refUpdateBuffer) Take(key uint64) (Tag, bool) {
	for i, k := range b.keys {
		if k == key {
			b.keys[i] = emptyKey
			return b.tags[i], true
		}
	}
	return Tag{}, false
}

// runUpdateBufferOps decodes ops into Insert (new keys, refreshes and
// evictions, over a key space a little larger than the buffer) and Take
// calls on a fresh buffer and on the reference, and compares after every
// step the key in every slot, the tag of every held slot, Len, each Take's
// result and the buffer's own check. The first byte picks the capacity.
func runUpdateBufferOps(t *testing.T, ops []byte) {
	if len(ops) == 0 {
		return
	}
	capacity := int(ops[0])%130 + 1 // across the 64-slot word boundary
	b, ref := NewUpdateBuffer(capacity), newRefUpdateBuffer(capacity)
	ops = ops[:min(len(ops), 1+2*3000)]
	keySpace := uint64(capacity + capacity/2 + 2)
	for pc := 1; pc+1 < len(ops); pc += 2 {
		op, a := ops[pc], ops[pc+1]
		key := (uint64(op>>1)<<8 | uint64(a)) % keySpace
		if op&1 == 0 {
			tag := progTag(int32(pc), int32(a))
			b.Insert(key, tag)
			ref.Insert(key, tag)
		} else {
			got, ok := b.Take(key)
			want, wantOK := ref.Take(key)
			if ok != wantOK || got != want {
				t.Fatalf("step %d: Take(%d) = %v %v, reference %v %v", pc/2, key, got, ok, want, wantOK)
			}
		}
		if !slices.Equal(b.keys, ref.keys) {
			t.Fatalf("step %d (cap %d): keys %v, reference %v", pc/2, capacity, b.keys, ref.keys)
		}
		held := 0
		for i, k := range ref.keys {
			if k != emptyKey {
				held++
				if b.tags[i] != ref.tags[i] {
					t.Fatalf("step %d: slot %d tag %v, reference %v", pc/2, i, b.tags[i], ref.tags[i])
				}
			}
		}
		if b.Len() != held {
			t.Fatalf("step %d: Len = %d, reference %d", pc/2, b.Len(), held)
		}
		if err := b.checkBounds(); err != nil {
			t.Fatalf("step %d: %v", pc/2, err)
		}
	}
}

// updateBufferOpSeqs are the random operation sequences the reference-model
// test runs and the fuzz target starts from: the 4-entry vUB, the 128-entry
// pUB and other sizes.
func updateBufferOpSeqs() [][]byte {
	var seqs [][]byte
	for seed, capacity := range []byte{3, 127, 0, 63, 64, 100} {
		rng := rand.New(rand.NewSource(int64(seed)))
		ops := make([]byte, 1+2*3000)
		rng.Read(ops)
		ops[0] = capacity
		seqs = append(seqs, ops)
	}
	return seqs
}

func TestUpdateBufferMatchesReference(t *testing.T) {
	for _, ops := range updateBufferOpSeqs() {
		runUpdateBufferOps(t, ops)
	}
}

func FuzzUpdateBuffer(f *testing.F) {
	for _, ops := range updateBufferOpSeqs() {
		f.Add(ops)
	}
	f.Fuzz(runUpdateBufferOps)
}

// TestUpdateBufferCheckCatchesIndexDesync corrupts the key index, the
// free-slot bitmap and the insertion order behind the buffer's back.
func TestUpdateBufferCheckCatchesIndexDesync(t *testing.T) {
	// Ten inserts into the empty 128-entry pUB take slots 127 down to 118.
	for _, corrupt := range []func(b *UpdateBuffer){
		func(b *UpdateBuffer) { b.index.Delete(b.keys[127]) },
		func(b *UpdateBuffer) { b.index.Put(b.keys[127], 126) },
		func(b *UpdateBuffer) { b.free[1] |= 1 << 63 },
		func(b *UpdateBuffer) { b.order[b.oldest].newer = -1 },
	} {
		f := newCheckedFilter(t)
		for k := uint64(0); k < 10; k++ {
			f.pub.Insert(k, progTag(int32(k)))
		}
		corrupt(f.pub)
		if err := f.CheckBounds(); err == nil || !strings.HasPrefix(err.Error(), "filter-pUB-index-desync:") {
			t.Errorf("CheckBounds = %v, want filter-pUB-index-desync", err)
		}
	}
}
