package prefetch

import "fmt"

// CheckInvariants verifies the metadata bounds of a prefetch engine: FDP
// aggressiveness within its ladder, BOP round state within its scoring
// bounds, Berti confidence counters within their saturation range, each
// Berti entry's valid deltas distinct and its empty slots at confidence 0,
// which its issue selection relies on.
// Engines without checkable metadata pass trivially. Returns the first
// violation, nil when clean.
func CheckInvariants(p Prefetcher) error {
	switch e := p.(type) {
	case *Throttle:
		if e.level < 1 || e.level > fdpLevels {
			return fmt.Errorf("fdp-level-range: aggressiveness %d outside [1,%d]", e.level, fdpLevels)
		}
		return CheckInvariants(e.Engine)
	case *BOP:
		if e.testIdx < 0 || e.testIdx >= len(bopOffsets) {
			return fmt.Errorf("bop-test-index: %d outside [0,%d)", e.testIdx, len(bopOffsets))
		}
		if e.roundLen < 0 || e.roundLen > bopRoundMax {
			return fmt.Errorf("bop-round-length: %d outside [0,%d]", e.roundLen, bopRoundMax)
		}
		for i, s := range e.scores {
			if s < 0 || s > bopScoreMax {
				return fmt.Errorf("bop-score-bounds: offset %d scored %d outside [0,%d]", bopOffsets[i], s, bopScoreMax)
			}
		}
		return nil
	case *Berti:
		for t := range e.table {
			ent := &e.table[t]
			if ent.histPos < 0 || ent.histPos >= bertiHistoryLen {
				return fmt.Errorf("berti-hist-pos: entry %d history position %d outside [0,%d)", t, ent.histPos, bertiHistoryLen)
			}
			for j, d := range ent.delta {
				c := ent.conf[j]
				if d == 0 {
					if c != 0 {
						return fmt.Errorf("berti-empty-conf: entry %d slot %d is empty but holds confidence %d", t, j, c)
					}
					continue
				}
				if c > bertiConfMax {
					return fmt.Errorf("berti-conf-bounds: entry %d delta %d confidence %d outside [0,%d]", t, d, c, bertiConfMax)
				}
				if d > bertiMaxDelta || d < -bertiMaxDelta {
					return fmt.Errorf("berti-delta-bounds: entry %d tracks delta %d outside ±%d", t, d, bertiMaxDelta)
				}
				for _, o := range ent.delta[j+1:] {
					if o == d {
						return fmt.Errorf("berti-duplicate-delta: entry %d tracks delta %d twice", t, d)
					}
				}
			}
		}
		return nil
	}
	return nil
}
