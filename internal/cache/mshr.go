package cache

import "fmt"

// mshr is one MSHR: a fill in flight at this level. The line it fetches and
// its retirement cycle are kept in the file's packed rows.
type mshr struct {
	issue uint64 // cycle the fill request entered this level
	ready uint64
}

// leakedReady is the ready-row value of an entry whose release was lost:
// above every cycle, so the entry never retires and never lowers minReady.
const leakedReady = ^uint64(0)

// mshrFile is a level's MSHR file: one value entry per fill in flight,
// allocated once at the configured capacity. Two packed rows run parallel
// to the entries: the line IDs, and the cycles at which the entries retire,
// so the retirement sweep reads one word per entry. The file holds a line
// at most once. Retirement swap-removes entries, so the sweep order, which
// decides which release an injected leak loses, is the file order. Only an
// injected leak grows the file past its capacity.
//
// A counting presence filter sits in front of the associative lookup (a
// CAM probe in hardware): present counts the held lines that hash to each
// counter, so a zero counter proves a line absent in one load. About 99% of
// lookups are for absent lines; only a hit or a filter collision scans the
// line row. With eight counters per MSHR a collision is rare, and unlike an
// exact index the filter needs no update when retirement moves an entry.
type mshrFile struct {
	entries []mshr
	lines   []uint64
	ready   []uint64 // entries[i].ready, or leakedReady
	present []uint16
	shift   uint // 64 - log2(len(present))
	// minReady is a lower bound on the earliest ready-row value (^0 when
	// the file is empty or only leaked entries remain). The sweep runs on
	// every access; with this bound the common case — nothing has completed
	// since the last sweep — is one comparison.
	minReady uint64

	// leakEveryN, when non-zero, loses the release of every Nth completed
	// fill (fault injection: a bookkeeping leak the oracle's leak-freedom
	// invariant must catch).
	leakEveryN uint64
	releases   uint64
}

func newMSHRFile(capacity int) mshrFile {
	size, bits := 1, uint(0)
	for size < 8*capacity { // eight counters per MSHR, a power of two
		size <<= 1
		bits++
	}
	return mshrFile{
		entries:  make([]mshr, 0, capacity),
		lines:    make([]uint64, 0, capacity),
		ready:    make([]uint64, 0, capacity),
		present:  make([]uint16, size),
		shift:    64 - bits,
		minReady: ^uint64(0),
	}
}

// hash picks line's presence counter: Fibonacci hashing, whose top bits
// spread consecutive lines evenly.
func (f *mshrFile) hash(line uint64) uint64 { return (line * 0x9E3779B97F4A7C15) >> f.shift }

func (f *mshrFile) counter(line uint64) *uint16 { return &f.present[f.hash(line)] }

func (f *mshrFile) len() int { return len(f.entries) }

// find returns the entry fetching line, or -1.
func (f *mshrFile) find(line uint64) int {
	if *f.counter(line) == 0 {
		return -1
	}
	for i, l := range f.lines {
		if l == line {
			return i
		}
	}
	return -1
}

// alloc adds an entry fetching line, which the file must not hold.
func (f *mshrFile) alloc(line uint64, e mshr) {
	f.entries = append(f.entries, e)
	f.lines = append(f.lines, line)
	f.ready = append(f.ready, e.ready)
	*f.counter(line)++
	f.minReady = min(f.minReady, e.ready)
}

// reissue replaces entry i in place, a lost release included: its line is
// fetched again.
func (f *mshrFile) reissue(i int, e mshr) {
	f.entries[i] = e
	f.ready[i] = e.ready
	f.minReady = min(f.minReady, e.ready)
}

// retire frees entry i by moving the file's last entry into its slot.
func (f *mshrFile) retire(i int) {
	*f.counter(f.lines[i])--
	last := len(f.entries) - 1
	f.entries[i] = f.entries[last]
	f.lines[i] = f.lines[last]
	f.ready[i] = f.ready[last]
	f.entries = f.entries[:last]
	f.lines = f.lines[:last]
	f.ready = f.ready[:last]
}

// sweep retires the entries completed by cycle, in file order. The set
// retired is identical to a full sweep's: cycle < minReady implies no
// ready-row value is <= cycle. Leaked entries hold leakedReady, so they
// never retire and never keep the bound low, which would force a sweep on
// every access ever after.
func (f *mshrFile) sweep(cycle uint64) {
	if cycle < f.minReady {
		return
	}
	low := ^uint64(0)
	for i := 0; i < len(f.ready); {
		r := f.ready[i]
		if r <= cycle {
			if n := f.leakEveryN; n > 0 {
				f.releases++
				if f.releases%n == 0 {
					f.ready[i] = leakedReady // release lost: the entry stays allocated
					i++
					continue
				}
			}
			f.retire(i) // slot i now holds an unvisited entry
			continue
		}
		low = min(low, r)
		i++
	}
	f.minReady = low
}

// earliest returns the earliest completion cycle over every entry, leaked
// ones included (^0 when the file is empty).
func (f *mshrFile) earliest() uint64 {
	low := ^uint64(0)
	for i := range f.entries {
		low = min(low, f.entries[i].ready)
	}
	return low
}

// flush empties the file.
func (f *mshrFile) flush() {
	f.entries = f.entries[:0]
	f.lines = f.lines[:0]
	f.ready = f.ready[:0]
	clear(f.present)
	f.minReady = ^uint64(0)
}

// check verifies the file against its capacity and its own rows at cycle,
// after a sweep: the presence filter counts exactly the line row and the
// ready row agrees with the entries (mshr-index-desync), occupancy stays
// within capacity, every entry is genuinely in flight and its timestamps
// are ordered.
func (f *mshrFile) check(name string, capacity int, cycle uint64) error {
	want := make([]uint16, len(f.present))
	for _, line := range f.lines {
		want[f.hash(line)]++
	}
	for h, n := range f.present {
		if n != want[h] {
			return fmt.Errorf("mshr-index-desync: %s presence counter %d holds %d, line row hashes %d lines to it", name, h, n, want[h])
		}
	}
	for i, line := range f.lines {
		if r := f.ready[i]; r != leakedReady && r != f.entries[i].ready {
			return fmt.Errorf("mshr-index-desync: %s line %#x ready row %d, entry ready %d", name, line, r, f.entries[i].ready)
		}
	}
	if got := len(f.entries); got > capacity {
		return fmt.Errorf("mshr-overflow: %s holds %d in-flight fills with %d MSHRs", name, got, capacity)
	}
	for i, e := range f.entries {
		if e.ready <= cycle {
			return fmt.Errorf("mshr-leak: %s line %#x completed at cycle %d but still occupies an MSHR at cycle %d", name, f.lines[i], e.ready, cycle)
		}
		if e.issue > e.ready {
			return fmt.Errorf("mshr-time-order: %s line %#x issued at %d after its ready cycle %d", name, f.lines[i], e.issue, e.ready)
		}
	}
	return nil
}
