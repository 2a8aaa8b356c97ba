package core

// MaxProgramFeatures caps the program features one filter combines: a Tag
// stores their weight indexes inline, in a fixed array of this width. PPF,
// the widest configuration the paper evaluates, uses 6.
const MaxProgramFeatures = 8

// MaxSystemFeatures caps the system features one filter combines: the width
// of Tag.SysMask.
const MaxSystemFeatures = 8

// Tag records which weights produced one prediction so training can update
// exactly those weights (the "hash indexes" stored alongside addresses in
// the update buffers, §III-B). It is a fixed-width value, like the
// hardware's buffer entry: ProgIdx holds one weight-table index per
// selected program feature, of which the first NumProg are meaningful, and
// bit i of SysMask is set when the filter's i-th system feature was active
// when the decision was made.
type Tag struct {
	ProgIdx [MaxProgramFeatures]int32
	NumProg uint8
	SysMask uint8
}

// emptyKey marks a free update-buffer slot. Keys are line addresses
// (address >> 6), which never reach it.
const emptyKey = ^uint64(0)

// UpdateBuffer is the common structure behind the Virtual and Physical
// Update Buffers: a tiny fully-associative buffer of (address, hash
// indexes) pairs with FIFO replacement. The keys form a packed row of their
// own, so the associative search scans 8 bytes per entry.
type UpdateBuffer struct {
	keys   []uint64 // line address per slot, emptyKey when free
	stamps []uint64 // insertion clock per slot, for FIFO replacement
	tags   []Tag
	clock  uint64
}

// NewUpdateBuffer builds a buffer with the given capacity.
func NewUpdateBuffer(capacity int) *UpdateBuffer {
	keys := make([]uint64, capacity)
	for i := range keys {
		keys[i] = emptyKey
	}
	return &UpdateBuffer{
		keys:   keys,
		stamps: make([]uint64, capacity),
		tags:   make([]Tag, capacity),
	}
}

// Insert records key with its tag, evicting the oldest entry when full.
// Re-inserting an existing key refreshes its tag.
func (b *UpdateBuffer) Insert(key uint64, tag Tag) {
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

// Take removes and returns the entry for key.
func (b *UpdateBuffer) Take(key uint64) (Tag, bool) {
	for i, k := range b.keys {
		if k == key {
			b.keys[i] = emptyKey
			return b.tags[i], true
		}
	}
	return Tag{}, false
}

// Len counts valid entries.
func (b *UpdateBuffer) Len() int {
	n := 0
	for _, k := range b.keys {
		if k != emptyKey {
			n++
		}
	}
	return n
}

// Cap returns the capacity.
func (b *UpdateBuffer) Cap() int { return len(b.keys) }
