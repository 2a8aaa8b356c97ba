// Package lrustack is the packed true-LRU recency state of one set of a
// set-associative structure, shaped like the hardware's: a single 64-bit
// word holds the way at each recency position as a 4-bit nibble, most
// recently used in the low nibble, least recently used at nibble ways-1.
// The cache and TLB models keep one word per set instead of a per-way
// timestamp row and a global clock.
//
// Every install and every hit moves its way to the MRU position, so in a
// full set the stack order equals the order of the last-use timestamps it
// replaces: the victim is the way a minimum-stamp scan would have picked.
package lrustack

import (
	"fmt"
	"math/bits"
)

// MaxWays is the widest set a word can order: sixteen 4-bit way ids.
const MaxWays = 16

// ones has a 1 in every nibble; multiplying a way id by it broadcasts the
// id into all sixteen positions.
const ones = 0x1111111111111111

// Stack is one set's recency order. Nibbles at positions ways and above are
// unused and never move.
type Stack uint64

// New returns the initial order of a ways-wide set: way i at position i, so
// way 0 is MRU and way ways-1 is the first victim.
func New(ways int) Stack {
	return Stack(0xFEDCBA9876543210 & mask(ways))
}

// mask covers the nibbles of positions [0, n); n may be 16.
func mask(n int) uint64 { return 1<<(4*uint(n)) - 1 }

// pos returns the recency position of way, or 16 when it is absent. The
// SWAR zero-nibble test is exact for the lowest matching nibble, and the
// way's single copy in a well-formed set is that nibble.
func (s Stack) pos(way int) int {
	x := uint64(s) ^ uint64(way)*ones
	return bits.TrailingZeros64((x-ones)&^x&(ones<<3)) >> 2
}

// Touch makes way the most recently used: the ways above it in recency
// shift down one position and way takes position 0.
func (s *Stack) Touch(way int) {
	p := s.pos(way)
	v := uint64(*s)
	*s = Stack(v&^mask(p+1) | (v&mask(p))<<4 | uint64(way))
}

// Victim returns the least recently used way of a ways-wide set.
func (s Stack) Victim(ways int) int {
	return int(uint64(s)>>(4*uint(ways-1))) & 0xF
}

// Check returns an error unless the low ways nibbles are a permutation of
// the way ids 0..ways-1.
func (s Stack) Check(ways int) error {
	var seen uint16
	for p := 0; p < ways; p++ {
		w := int(uint64(s)>>(4*uint(p))) & 0xF
		if w >= ways {
			return fmt.Errorf("position %d holds way %d of a %d-way set (stack %#x)", p, w, ways, uint64(s))
		}
		if seen&(1<<w) != 0 {
			return fmt.Errorf("way %d appears twice (stack %#x)", w, uint64(s))
		}
		seen |= 1 << w
	}
	return nil
}
