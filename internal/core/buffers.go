package core

import (
	"math/bits"

	"repro/internal/cam"
)

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
// indexes) pairs with FIFO replacement. Every operation is constant-time,
// as the hardware's CAM probe is: a key index finds an entry, a free-slot
// bitmap hands out the highest-numbered free slot, and a list of the held
// slots in insertion order, a refresh counting as an insertion, names the
// oldest entry when the buffer is full.
type UpdateBuffer struct {
	keys  []uint64 // line address per slot, emptyKey when free
	tags  []Tag
	index cam.Index // key → slot
	free  []uint64  // bit i of word i/64 set when slot i is free
	// order links the held slots from oldest to newest; -1 ends the list.
	order          []link
	oldest, newest int32
}

// link is one held slot's place in the insertion order.
type link struct{ older, newer int32 }

// NewUpdateBuffer builds a buffer with the given capacity.
func NewUpdateBuffer(capacity int) *UpdateBuffer {
	b := &UpdateBuffer{
		keys:   make([]uint64, capacity),
		tags:   make([]Tag, capacity),
		index:  cam.New(capacity),
		free:   make([]uint64, (capacity+63)/64),
		order:  make([]link, capacity),
		oldest: -1,
		newest: -1,
	}
	for i := range b.keys {
		b.keys[i] = emptyKey
		b.free[i/64] |= 1 << (i % 64)
	}
	return b
}

// Insert records key with its tag. A new key takes the highest-numbered
// free slot, or evicts the oldest entry when the buffer is full;
// re-inserting an existing key refreshes its tag and makes it the newest.
func (b *UpdateBuffer) Insert(key uint64, tag Tag) {
	i := b.index.Get(key)
	if i >= 0 {
		b.unlink(i) // re-enqueued below as the newest
	} else {
		if i = b.takeFree(); i < 0 {
			i = int(b.oldest)
			b.index.Delete(b.keys[i])
			b.unlink(i)
		}
		b.keys[i] = key
		b.index.Put(key, i)
	}
	b.tags[i] = tag
	b.enqueue(i)
}

// Take removes and returns the entry for key.
func (b *UpdateBuffer) Take(key uint64) (Tag, bool) {
	i := b.index.Get(key)
	if i < 0 {
		return Tag{}, false
	}
	b.index.Delete(key)
	b.unlink(i)
	b.keys[i] = emptyKey
	b.free[i/64] |= 1 << (i % 64)
	return b.tags[i], true
}

// takeFree claims the highest-numbered free slot, or returns -1.
func (b *UpdateBuffer) takeFree() int {
	for w := len(b.free) - 1; w >= 0; w-- {
		if m := b.free[w]; m != 0 {
			bit := 63 - bits.LeadingZeros64(m)
			b.free[w] = m &^ (1 << bit)
			return w*64 + bit
		}
	}
	return -1
}

// enqueue appends held slot i to the newest end of the insertion order.
func (b *UpdateBuffer) enqueue(i int) {
	b.order[i] = link{older: b.newest, newer: -1}
	if b.newest >= 0 {
		b.order[b.newest].newer = int32(i)
	} else {
		b.oldest = int32(i)
	}
	b.newest = int32(i)
}

// unlink removes held slot i from the insertion order.
func (b *UpdateBuffer) unlink(i int) {
	o, n := b.order[i].older, b.order[i].newer
	if o >= 0 {
		b.order[o].newer = n
	} else {
		b.oldest = n
	}
	if n >= 0 {
		b.order[n].older = o
	} else {
		b.newest = o
	}
}

// Len counts valid entries.
func (b *UpdateBuffer) Len() int { return b.index.Len() }

// Cap returns the capacity.
func (b *UpdateBuffer) Cap() int { return len(b.keys) }
