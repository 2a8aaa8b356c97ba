package prefetch

// Berti is a reimplementation of the local-delta prefetcher of
// Navarro-Torres et al. (MICRO 2022), the paper's state-of-the-art L1D
// prefetcher. Berti learns, per load PC, the set of "timely deltas": line
// deltas d such that prefetching X+d when the program touches X would have
// completed before the program actually touched X+d. Deltas whose coverage
// exceeds a confidence threshold are issued; high-confidence deltas may be
// issued several pages ahead, which is what makes Berti's page-cross
// behaviour interesting to the filter.
//
// The implementation keeps the structure of the original proposal — a
// per-IP access history used to extract timely deltas and a per-IP delta
// table with coverage counters — with the miss-latency estimate supplied by
// the cache's fill feedback instead of a dedicated latency table.

const (
	bertiHistoryLen   = 8   // per-IP history entries
	bertiDeltasPerIP  = 16  // per-IP delta candidates
	bertiTableSize    = 256 // tracked IPs (direct-mapped by PC hash)
	bertiMaxDelta     = 256 // |delta| bound in lines (4 pages)
	bertiConfBits     = 6   // coverage counter width
	bertiConfMax      = 1<<bertiConfBits - 1
	bertiIssueConf    = 4 // minimum coverage to issue
	bertiMaxDegree    = 4 // candidates per access
	bertiDecayPeriod  = 4096
	bertiDefaultMissL = 60 // initial miss-latency estimate (cycles)
)

type bertiHistEntry struct {
	line  int64
	cycle uint64
	valid bool
}

type bertiIPEntry struct {
	tag     uint64
	hist    [bertiHistoryLen]bertiHistEntry
	histPos int
	// delta and conf are the entry's delta table as two hardware rows:
	// slot j tracks line delta delta[j] with coverage counter conf[j]. A
	// zero delta marks an empty slot (Train never records delta 0), and an
	// empty slot's counter stays 0, below the issue threshold.
	delta [bertiDeltasPerIP]int16
	conf  [bertiDeltasPerIP]uint8
}

// Berti is the local-delta prefetcher.
type Berti struct {
	table    []bertiIPEntry
	missLat  uint64 // EWMA of observed demand fill latency
	accesses uint64
	degree   int
	buf      []Candidate // Train's reusable scratch (see Prefetcher.Train)
}

// NewBerti builds a Berti engine with the default table size and degree.
func NewBerti() *Berti { return NewBertiSized(bertiTableSize) }

// NewBertiSized builds a Berti engine with the given IP-table entry count;
// the ISO-Storage comparison (§V-A) spends the filter's budget here.
func NewBertiSized(entries int) *Berti {
	if entries <= 0 {
		entries = bertiTableSize
	}
	return &Berti{
		table:   make([]bertiIPEntry, entries),
		missLat: bertiDefaultMissL,
		degree:  bertiMaxDegree,
	}
}

// Name implements Prefetcher.
func (b *Berti) Name() string { return "berti" }

// FillLatency implements Prefetcher: an exponentially weighted moving
// average of demand fill latency drives the timeliness test.
func (b *Berti) FillLatency(lat uint64) {
	b.missLat = (b.missLat*7 + lat) / 8
}

func (b *Berti) entryFor(pc uint64) *bertiIPEntry {
	h := pc * 0x9E3779B97F4A7C15
	idx := (h >> 16) % uint64(len(b.table))
	e := &b.table[idx]
	if e.tag != pc {
		// Direct-mapped: a new PC takes over the slot.
		*e = bertiIPEntry{tag: pc}
	}
	return e
}

// Train implements Prefetcher.
func (b *Berti) Train(a Access) []Candidate {
	b.accesses++
	e := b.entryFor(a.PC)
	line := lineOf(a.Addr)

	// Timeliness training: any history entry old enough that a prefetch
	// launched then would have completed by now contributes its delta.
	for i := range e.hist {
		h := &e.hist[i]
		if !h.valid || h.line == line {
			continue
		}
		if a.Cycle-h.cycle < b.missLat {
			continue // too recent: prefetching then would have been late
		}
		d := line - h.line
		if d == 0 || d > bertiMaxDelta || d < -bertiMaxDelta {
			continue
		}
		b.bumpDelta(e, int16(d))
	}

	// Record the access.
	e.hist[e.histPos] = bertiHistEntry{line: line, cycle: a.Cycle, valid: true}
	e.histPos = (e.histPos + 1) % bertiHistoryLen

	// Periodic decay keeps confidence adaptive across phases.
	if b.accesses%bertiDecayPeriod == 0 {
		for t := range b.table {
			for j := range b.table[t].conf {
				b.table[t].conf[j] /= 2
			}
		}
	}

	return b.issue(e, line)
}

// issue returns the candidates of entry e for an access to line: its
// degree most confident deltas at or above the issue threshold, higher
// confidence first and ties to the lower slot, stopping at the first target
// below address zero. One pass selects them, since bumpDelta keeps an
// entry's valid deltas distinct. Empty slots hold confidence 0, so the
// threshold alone skips them.
func (b *Berti) issue(e *bertiIPEntry, line int64) []Candidate {
	// top holds the selected slots, best first, and topConf their
	// confidences: an insertion sort bounded by the degree.
	var top [bertiDeltasPerIP]int8
	var topConf [bertiDeltasPerIP]uint8
	n, k := 0, min(b.degree, bertiDeltasPerIP)
	for j, c := range e.conf {
		if c < bertiIssueConf {
			continue
		}
		if n == k {
			if n == 0 || topConf[n-1] >= c {
				continue
			}
			n-- // the last selected falls out
		}
		p := n
		for ; p > 0 && topConf[p-1] < c; p-- {
			top[p], topConf[p] = top[p-1], topConf[p-1]
		}
		top[p], topConf[p] = int8(j), c
		n++
	}
	out := b.buf[:0]
	for _, j := range top[:n] {
		d := int64(e.delta[j])
		t, ok := targetOf(line + d)
		if !ok {
			break
		}
		out = append(out, Candidate{Target: t, Delta: d, Meta: uint64(e.conf[j])})
	}
	b.buf = out
	return out
}

// bumpDelta credits delta d (non-zero) in entry e: a tracked delta gains
// confidence up to saturation; an untracked one takes the last empty slot,
// else replaces the first least-confident slot if that one is below the
// issue threshold.
func (b *Berti) bumpDelta(e *bertiIPEntry, d int16) {
	victim, minConf := 0, bertiConfMax+1 // every counter is below the start
	for j, s := range e.delta {
		if s == d {
			if e.conf[j] < bertiConfMax {
				e.conf[j]++
			}
			return
		}
		if s == 0 {
			victim, minConf = j, -1
			continue
		}
		if c := int(e.conf[j]); c < minConf {
			victim, minConf = j, c
		}
	}
	if minConf < bertiIssueConf {
		e.delta[victim], e.conf[victim] = d, 1
	}
}
