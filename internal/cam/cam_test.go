package cam

import (
	"math/rand"
	"testing"
)

// TestIndexMatchesMap drives an index and a Go map with the same random
// Put/Delete sequence over a small key space (so probe chains collide and
// deletions shift them), up to the index's capacity, and compares every key
// after every step.
func TestIndexMatchesMap(t *testing.T) {
	for _, capacity := range []int{1, 4, 48} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		x := New(capacity)
		ref := map[uint64]int{}
		keys := make([]uint64, 3*capacity+2)
		for i := range keys {
			keys[i] = rng.Uint64() >> uint(rng.Intn(60)) // small and large keys
		}
		for step := 0; step < 20_000; step++ {
			k := keys[rng.Intn(len(keys))]
			if rng.Intn(3) == 0 {
				_, held := ref[k]
				if got := x.Delete(k); got != held {
					t.Fatalf("cap %d step %d: Delete(%#x) = %v, map holds it: %v", capacity, step, k, got, held)
				}
				delete(ref, k)
			} else if _, held := ref[k]; held || len(ref) < capacity {
				s := rng.Intn(1 << 20)
				x.Put(k, s)
				ref[k] = s
			}
			if x.Len() != len(ref) {
				t.Fatalf("cap %d step %d: Len = %d, map %d", capacity, step, x.Len(), len(ref))
			}
			for _, k := range keys {
				want, held := ref[k]
				if !held {
					want = -1
				}
				if got := x.Get(k); got != want {
					t.Fatalf("cap %d step %d: Get(%#x) = %d, want %d", capacity, step, k, got, want)
				}
			}
		}
	}
}

// TestIndexZeroAlloc pins that Put and Delete allocate nothing.
func TestIndexZeroAlloc(t *testing.T) {
	x := New(48)
	var k uint64
	allocs := testing.AllocsPerRun(1000, func() {
		for i := uint64(0); i < 48; i++ {
			x.Put(k+i, int(i))
		}
		for i := uint64(0); i < 48; i++ {
			x.Delete(k + i)
		}
		k += 48
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per fill-and-drain, want 0", allocs)
	}
}
