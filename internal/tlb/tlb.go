// Package tlb implements the set-associative translation lookaside buffers
// of Table IV: the first-level data and instruction TLBs (64-entry, 4-way)
// and the shared second-level sTLB (1536-entry, 12-way). Entries may hold
// 4KB or 2MB translations; both sizes coexist in the same arrays, tagged by
// their page-size kind. TLB fills triggered by page-cross prefetches are
// tracked separately so the paper's TLB-pollution effects are measurable.
package tlb

import (
	"fmt"
	"slices"

	"repro/internal/lrustack"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/vmem"
)

// Config sizes a TLB.
type Config struct {
	Name    string
	Sets    int
	Ways    int
	Latency uint64
}

// Validate checks structural parameters.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("tlb %s: sets %d must be a positive power of two", c.Name, c.Sets)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("tlb %s: ways %d must be positive", c.Name, c.Ways)
	}
	if c.Ways > lrustack.MaxWays {
		return fmt.Errorf("tlb %s: ways %d exceeds the packed LRU stack's limit of %d", c.Name, c.Ways, lrustack.MaxWays)
	}
	return nil
}

// Entries returns the total entry count.
func (c Config) Entries() int { return c.Sets * c.Ways }

// entry is one way's translation payload. Whether the way is valid and how
// recently it was used live in the packed key row and the set's LRU stack.
type entry struct {
	vpn      uint64 // 4K VPN for 4K entries, 2M VPN for 2M entries
	base     mem.PAddr
	kind     mem.PageSizeKind
	prefetch bool // filled by a page-cross prefetch walk
}

// packKey packs a (VPN, page-size kind) pair with a valid bit into one
// word. The flat keys row mirrors the entries struct-of-arrays style so the
// associative scan in find touches one contiguous cache line per set
// instead of striding across entry records. Key 0 (valid bit clear) marks
// an empty way and never matches a probe.
func packKey(vpn uint64, kind mem.PageSizeKind) uint64 {
	return vpn<<2 | uint64(kind)<<1 | 1
}

// TLB is one translation cache level.
type TLB struct {
	cfg Config
	// entries and keys are parallel rows indexed by set*Ways+way: the
	// payload and the packed (vpn, kind, valid) key. stacks holds one packed
	// LRU order per set.
	entries []entry
	keys    []uint64
	stacks  []lrustack.Stack
	// memoKey and memoRow remember the last Lookup hit: the packed 4K key
	// of the page it translated (0 when clear) and the row that served it.
	// A hit makes its way MRU, and only insert and Flush change a set's
	// keys or recency, so until one of them clears the memo a repeat
	// lookup of that page resolves to the same row and its Touch would be
	// a no-op: the memo skips both the scan and the Touch.
	memoKey uint64
	memoRow int
	// Stats uses the shared cache-stats vocabulary: demand accesses/misses
	// give MPKI and miss rate; prefetch fills/useful track pollution.
	Stats *stats.CacheStats

	// staleEveryN, when non-zero, corrupts the physical base of every Nth
	// inserted entry (fault injection: a stale/corrupted PTE cached in the
	// TLB, which the oracle's TLB ⇒ valid-PTE invariant must catch).
	staleEveryN uint64
	inserts     uint64
}

// New builds a TLB.
func New(cfg Config) (*TLB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Entries()
	stacks := make([]lrustack.Stack, cfg.Sets)
	for i := range stacks {
		stacks[i] = lrustack.New(cfg.Ways)
	}
	return &TLB{
		cfg:     cfg,
		entries: make([]entry, n),
		keys:    make([]uint64, n),
		stacks:  stacks,
		Stats:   &stats.CacheStats{},
	}, nil
}

// Config returns the configuration.
func (t *TLB) Config() Config { return t.cfg }

// setOf returns the set vpn maps to.
func (t *TLB) setOf(vpn uint64) int { return int(vpn & uint64(t.cfg.Sets-1)) }

// find returns the set and way of the entry translating va, checking both
// page sizes; way is -1 when neither is resident.
func (t *TLB) find(va mem.VAddr) (set, way int) {
	vpn := va.PageID()
	if w := t.findKey(vpn, mem.Page4K); w >= 0 {
		return t.setOf(vpn), w
	}
	vpn = va.LargePageID()
	return t.setOf(vpn), t.findKey(vpn, mem.Page2M)
}

// findKey returns the way of vpn's set holding (vpn, kind), or -1. The scan
// runs over the set's packed keys only.
func (t *TLB) findKey(vpn uint64, kind mem.PageSizeKind) int {
	base, want := t.setOf(vpn)*t.cfg.Ways, packKey(vpn, kind)
	for i, k := range t.keys[base : base+t.cfg.Ways] {
		if k == want {
			return i
		}
	}
	return -1
}

// Lookup probes the TLB. demand selects whether the access is counted in
// the demand statistics (prefetch translations are counted separately).
// On a hit the entry's LRU state is refreshed.
func (t *TLB) Lookup(va mem.VAddr, demand bool) (vmem.Translation, bool) {
	if demand {
		t.Stats.DemandAccesses++
	}
	key, row := packKey(va.PageID(), mem.Page4K), t.memoRow
	if key != t.memoKey {
		set, way := t.find(va)
		if way < 0 {
			if demand {
				t.Stats.DemandMisses++
			}
			return vmem.Translation{}, false
		}
		t.stacks[set].Touch(way)
		row = set*t.cfg.Ways + way
		t.memoKey, t.memoRow = key, row
	}
	e := &t.entries[row]
	if demand {
		t.Stats.DemandHits++
		if e.prefetch {
			// First demand use of a prefetched translation.
			t.Stats.UsefulPrefetches++
			e.prefetch = false
		}
	}
	return vmem.Translation{Base: e.base, Kind: e.kind}, true
}

// Probe reports whether a translation is resident without touching LRU or
// statistics. The Discard-PTW policy uses it to test TLB residency before
// deciding whether a page-cross prefetch would trigger a walk.
func (t *TLB) Probe(va mem.VAddr) bool {
	_, way := t.find(va)
	return way >= 0
}

// Insert fills a translation. fromPrefetch marks fills caused by page-cross
// prefetch walks so that TLB pollution is attributable.
func (t *TLB) Insert(va mem.VAddr, tr vmem.Translation, fromPrefetch bool) {
	t.insert(va, tr, fromPrefetch, false)
}

// InsertQuiet fills a translation without touching any statistics or the
// fault-injection insert counter. The sampled simulator's functional-warmup
// gaps use it: TLB state must track the skipped instructions, but the
// frozen measurement counters must not observe the warm traffic.
func (t *TLB) InsertQuiet(va mem.VAddr, tr vmem.Translation) {
	t.insert(va, tr, false, true)
}

func (t *TLB) insert(va mem.VAddr, tr vmem.Translation, fromPrefetch, quiet bool) {
	t.memoKey = 0 // the fill moves a way to MRU and may replace the memo's row
	vpn := va.PageID()
	if tr.Kind == mem.Page2M {
		vpn = va.LargePageID()
	}
	want := packKey(vpn, tr.Kind)
	set := t.setOf(vpn)
	base := set * t.cfg.Ways
	way := t.findKey(vpn, tr.Kind) // refresh a resident entry in place
	if way < 0 {
		way = slices.Index(t.keys[base:base+t.cfg.Ways], 0) // first empty way
		if way < 0 {
			way = t.stacks[set].Victim(t.cfg.Ways)
		}
	}
	victim := base + way
	e := &t.entries[victim]
	if !quiet && t.keys[victim] != 0 && t.keys[victim] != want {
		t.Stats.Evictions++
		if e.prefetch {
			t.Stats.UselessPrefetches++
		}
	}
	frame := tr.Base
	if !quiet {
		t.inserts++
		if n := t.staleEveryN; n > 0 && t.inserts%n == 0 {
			// Injected stale PTE: the cached frame no longer matches the page
			// table. The XOR keeps the base page-aligned and in-bounds for any
			// power-of-two memory ≥ 1GB, so only the checker notices.
			frame ^= mem.PAddr(0x3F << mem.PageBits)
		}
	}
	*e = entry{kind: tr.Kind, vpn: vpn, base: frame, prefetch: fromPrefetch}
	t.keys[victim] = want
	t.stacks[set].Touch(way)
	if !quiet && fromPrefetch {
		t.Stats.PrefetchFills++
	}
}

// InjectStalePTE makes every Nth Insert store a corrupted physical base
// (0 disables). Fault injection for the oracle's TLB invariants.
func (t *TLB) InjectStalePTE(everyN uint64) { t.staleEveryN = everyN }

// Entry is one resident translation as seen by VisitEntries.
type Entry struct {
	VPN      uint64 // 4K VPN for 4K entries, 2M VPN for 2M entries
	Kind     mem.PageSizeKind
	Base     mem.PAddr
	Prefetch bool // filled by a page-cross prefetch walk
}

// VA reconstructs the first virtual address the entry translates.
func (e Entry) VA() mem.VAddr {
	if e.Kind == mem.Page2M {
		return mem.VAddr(e.VPN << mem.LargePageBits)
	}
	return mem.VAddr(e.VPN << mem.PageBits)
}

// VisitEntries calls fn for every valid entry. Read-only: it perturbs
// neither LRU state nor statistics, so checkers can scan freely.
func (t *TLB) VisitEntries(fn func(Entry)) {
	for i, k := range t.keys {
		if k != 0 {
			e := &t.entries[i]
			fn(Entry{VPN: e.vpn, Kind: e.kind, Base: e.base, Prefetch: e.prefetch})
		}
	}
}

// CheckInvariants verifies the TLB's structural invariants against resolve,
// the reference page table (typically vmem.AddressSpace.Lookup):
//
//   - every valid entry translates a page the reference model has mapped;
//   - the cached base and page-size kind match the reference translation
//     (TLB entry ⇒ valid PTE);
//   - no (VPN, kind) pair is cached twice;
//   - each set's LRU stack is a permutation of its way ids.
//
// It returns the first violation found, nil when clean. resolve must be
// side-effect free.
func (t *TLB) CheckInvariants(resolve func(mem.VAddr) (vmem.Translation, bool)) error {
	// A valid way's packed key must mirror its entry exactly; a desync
	// would make find and VisitEntries disagree about what is cached.
	for i, k := range t.keys {
		if e := &t.entries[i]; k != 0 && k != packKey(e.vpn, e.kind) {
			return fmt.Errorf("tlb-key-desync: %s set %d way %d key %#x does not match entry key %#x", t.cfg.Name, i/t.cfg.Ways, i%t.cfg.Ways, k, packKey(e.vpn, e.kind))
		}
	}
	for set, s := range t.stacks {
		if err := s.Check(t.cfg.Ways); err != nil {
			return fmt.Errorf("recency-perm: %s set %d: %v", t.cfg.Name, set, err)
		}
	}
	seen := make(map[uint64]struct{}, t.cfg.Sets*t.cfg.Ways)
	var err error
	t.VisitEntries(func(e Entry) {
		if err != nil {
			return
		}
		// Key by VPN plus kind bit; 4K and 2M VPNs live in disjoint ranges
		// only after tagging the kind.
		key := e.VPN<<1 | uint64(e.Kind)
		if _, dup := seen[key]; dup {
			err = fmt.Errorf("tlb-duplicate-entry: %s holds two entries for %s vpn %#x", t.cfg.Name, e.Kind, e.VPN)
			return
		}
		seen[key] = struct{}{}
		tr, ok := resolve(e.VA())
		if !ok {
			err = fmt.Errorf("tlb-unmapped-page: %s caches %s vpn %#x with no page-table mapping", t.cfg.Name, e.Kind, e.VPN)
			return
		}
		if tr.Kind != e.Kind {
			err = fmt.Errorf("tlb-stale-pte: %s entry for vpn %#x caches kind %s, page table says %s", t.cfg.Name, e.VPN, e.Kind, tr.Kind)
			return
		}
		if tr.Base != e.Base {
			err = fmt.Errorf("tlb-stale-pte: %s entry for %s vpn %#x caches base %#x, page table says %#x", t.cfg.Name, e.Kind, e.VPN, e.Base, tr.Base)
		}
	})
	return err
}

// Latency returns the hit latency.
func (t *TLB) Latency() uint64 { return t.cfg.Latency }

// EmitMetrics implements metrics.Source: the statistics block and the
// capacity.
func (t *TLB) EmitMetrics(emit metrics.Emit) {
	t.Stats.EmitMetrics(emit)
	emit("entries", metrics.KindGauge, uint64(t.cfg.Entries()))
}

// Flush invalidates every entry (multi-core trace replay).
func (t *TLB) Flush() {
	clear(t.keys)
	t.memoKey = 0
}
