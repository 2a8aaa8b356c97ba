package cache

import (
	"strings"
	"testing"

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
	corrupt := func(t *testing.T, mutate func(c *Cache, b *Block), want string) {
		t.Helper()
		c := smallCache(t, &fakeLower{latency: 1})
		c.Access(load(0x4000), 0)
		b := c.lookup(0x4000)
		if b == nil {
			t.Fatal("fill missing")
		}
		mutate(c, b)
		checkAfter(t, c, 1_000, want)
	}
	// row returns the packed tag-row slot of way wi in b's set.
	row := func(c *Cache, b *Block, wi int) *uint64 {
		return &c.tags[c.setIndex(b.pa)*uint64(c.cfg.Ways)+uint64(wi)]
	}
	// The packed row is the only copy of a block's tag: a row entry that
	// disagrees with the block's address is a misplaced block.
	corrupt(t, func(c *Cache, b *Block) {
		wi := c.findWay(c.setIndex(b.pa), c.tag(b.pa))
		*row(c, b, wi) ^= 1
	}, "block-misplaced:")
	corrupt(t, func(c *Cache, b *Block) { b.pa += mem.PAddr(c.cfg.Sets * mem.LineSize) }, "block-misplaced:")
	corrupt(t, func(c *Cache, b *Block) { b.issue = b.ready + 10 }, "block-time-order:")
	corrupt(t, func(c *Cache, b *Block) {
		set := c.sets[c.setIndex(b.pa)]
		set[1] = *b // second way, same tag
		*row(c, b, 1) = c.tag(b.pa)
	}, "duplicate-tag:")
	// Validity and the row's empty-way marker must agree both ways.
	corrupt(t, func(c *Cache, b *Block) {
		*row(c, b, c.findWay(c.setIndex(b.pa), c.tag(b.pa))) = invalidTag
	}, "tag-desync:")
	corrupt(t, func(c *Cache, b *Block) {
		*row(c, b, 1) = c.tag(b.pa) ^ 1 // invalid way claims a tag
	}, "tag-desync:")
}
