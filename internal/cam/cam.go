// Package cam is an exact key→slot index for a small fully-associative
// structure, such as the page-cross filter's update buffers. Hardware
// answers a lookup in such a structure with one content-addressable-memory
// probe; Index answers it with an open-addressed hash table, linear
// probing, kept at most half full, so a lookup reads one or two buckets
// whatever the structure's size.
//
// The structure that owns the index keeps its own slot rows and calls Put
// and Delete as entries come and go, never holding more keys than the
// capacity the index was built for.
package cam

// Index maps distinct uint64 keys to slot numbers. The zero value is not
// usable; build one with New.
type Index struct {
	buckets []bucket
	shift   uint // 64 - log2(len(buckets)): the hash keeps the top bits
	n       int  // occupied buckets
}

// bucket is one table entry; a probe reads key and slot from one host
// cache line.
type bucket struct {
	key  uint64
	slot int32 // slot+1; 0 marks an empty bucket
}

// New builds an index for up to capacity keys, which fill at most half of
// its buckets.
func New(capacity int) Index {
	size, bits := 2, uint(1)
	for size < 2*capacity {
		size <<= 1
		bits++
	}
	return Index{buckets: make([]bucket, size), shift: 64 - bits}
}

// home is key's first bucket: Fibonacci hashing, whose top bits spread
// consecutive line addresses evenly.
func (x *Index) home(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> x.shift)
}

// bucket returns the bucket holding key, or -1.
func (x *Index) bucket(key uint64) int {
	mask := len(x.buckets) - 1
	for b := x.home(key); ; b = (b + 1) & mask {
		if x.buckets[b].slot == 0 {
			return -1
		}
		if x.buckets[b].key == key {
			return b
		}
	}
}

// Get returns the slot of key, or -1 when the index does not hold it.
func (x *Index) Get(key uint64) int {
	if b := x.bucket(key); b >= 0 {
		return int(x.buckets[b].slot) - 1
	}
	return -1
}

// Put maps key to slot, replacing the slot of a key already held. A new
// key must not take the index past its capacity.
func (x *Index) Put(key uint64, slot int) {
	if b := x.bucket(key); b >= 0 {
		x.buckets[b].slot = int32(slot + 1)
		return
	}
	mask := len(x.buckets) - 1
	b := x.home(key)
	for x.buckets[b].slot != 0 {
		b = (b + 1) & mask
	}
	x.buckets[b] = bucket{key, int32(slot + 1)}
	x.n++
}

// Delete removes key and reports whether the index held it. The buckets
// after it shift back into the gap (backward-shift deletion), so the table
// needs no tombstones and probe sequences never lengthen with churn.
func (x *Index) Delete(key uint64) bool {
	gap := x.bucket(key)
	if gap < 0 {
		return false
	}
	mask := len(x.buckets) - 1
	for b := (gap + 1) & mask; x.buckets[b].slot != 0; b = (b + 1) & mask {
		// The key in bucket b may fill the gap when its home is not in the
		// cyclic range (gap, b]: it stays reachable from its home.
		if (b-x.home(x.buckets[b].key))&mask >= (b-gap)&mask {
			x.buckets[gap] = x.buckets[b]
			gap = b
		}
	}
	x.buckets[gap].slot = 0
	x.n--
	return true
}

// Len returns the number of keys held.
func (x *Index) Len() int { return x.n }
