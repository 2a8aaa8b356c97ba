package cache

import (
	"strings"
	"testing"

	"repro/internal/lrustack"
	"repro/internal/mem"
)

// checkAfter runs CheckInvariants and asserts the violation prefix.
func checkAfter(t *testing.T, c *Cache, cycle uint64, wantPrefix string) {
	t.Helper()
	err := c.CheckInvariants(cycle)
	if wantPrefix == "" {
		if err != nil {
			t.Fatalf("clean cache violates: %v", err)
		}
		return
	}
	if err == nil || !strings.HasPrefix(err.Error(), wantPrefix) {
		t.Fatalf("CheckInvariants = %v, want %s", err, wantPrefix)
	}
}

func TestCheckInvariantsCleanUnderTraffic(t *testing.T) {
	c := smallCache(t, &fakeLower{latency: 20})
	for i := 0; i < 64; i++ {
		c.Access(load(mem.PAddr(i*64)), uint64(i))
		checkAfter(t, c, uint64(i), "")
	}
	// Completed fills must gc away before the leak check judges them.
	checkAfter(t, c, 10_000, "")
}

func TestCheckInvariantsCatchesInjectedLeak(t *testing.T) {
	c := smallCache(t, &fakeLower{latency: 20})
	c.InjectMSHRLeak(1) // every release lost
	c.Access(load(0x1000), 0)
	checkAfter(t, c, 10_000, "mshr-leak:")
}

func TestCheckInvariantsCatchesOverflowAndOrdering(t *testing.T) {
	c := smallCache(t, &fakeLower{latency: 20})
	// More live entries than MSHRs: capacity accounting broke somewhere.
	for i := 0; i <= c.cfg.MSHRs; i++ {
		c.mshrs.alloc(uint64(i), mshr{issue: 0, ready: 1 << 40})
	}
	checkAfter(t, c, 100, "mshr-overflow:")

	c = smallCache(t, &fakeLower{latency: 20})
	c.mshrs.alloc(7, mshr{issue: 500, ready: 400})
	checkAfter(t, c, 100, "mshr-time-order:")
}

func TestCheckInvariantsCatchesSetCorruption(t *testing.T) {
	// corrupt fills one line of a fresh 4-set x 4-way cache, hands mutate
	// the row index of the way it landed in, and asserts the violation.
	corrupt := func(t *testing.T, mutate func(c *Cache, i int), want string) {
		t.Helper()
		c, err := New(Config{Name: "test", Sets: 4, Ways: 4, Latency: 2, MSHRs: 4}, &fakeLower{latency: 1})
		if err != nil {
			t.Fatal(err)
		}
		c.Access(load(0x4000), 0)
		i := c.lookup(0x4000)
		if i < 0 {
			t.Fatal("fill missing")
		}
		mutate(c, i)
		checkAfter(t, c, 1_000, want)
	}
	// The tag row is the only copy of a line's address: a tag with bits the
	// rebuilt address cannot hold names no line of this set.
	corrupt(t, func(c *Cache, i int) { c.tags[i] |= 1 << 62 }, "block-misplaced:")
	corrupt(t, func(c *Cache, i int) { c.times[i].issue = c.times[i].ready + 10 }, "block-time-order:")
	corrupt(t, func(c *Cache, i int) {
		c.tags[i^1], c.state[i^1] = c.tags[i], c.state[i] // second way, same tag
	}, "duplicate-tag:")
	// An empty way carries no state: neither a stray bit on a never-filled
	// way nor the state left behind when a valid way loses its tag.
	corrupt(t, func(c *Cache, i int) { c.state[i^1] = stDirty }, "tag-desync:")
	corrupt(t, func(c *Cache, i int) { c.tags[i] = invalidTag }, "tag-desync:")
	// The set's recency word must stay a permutation of its way ids.
	stack := func(c *Cache, i int) *lrustack.Stack { return &c.stacks[i/c.cfg.Ways] }
	corrupt(t, func(c *Cache, i int) {
		s := stack(c, i) // duplicate the MRU way's nibble over the LRU one
		*s = *s&^(0xF<<12) | (*s&0xF)<<12
	}, "recency-perm:")
	corrupt(t, func(c *Cache, i int) {
		// A touch of way 2 (position 2) that removes position 1 instead:
		// way 2 ends up twice and way 1 is lost.
		s := stack(c, i)
		*s = *s&^0xFF | (*s&0xF)<<4 | 2
	}, "recency-perm:")
}
