package core

import "fmt"

// CheckBounds verifies the saturation and occupancy invariants of the
// filter's metadata — the bookkeeping §III-B sizes in Table III and the
// paper's results depend on staying within:
//
//   - every perceptron weight within its [min, max] saturation range;
//   - every system-feature counter within its saturation range;
//   - the threshold ladder index within the configured ladder;
//   - the update buffers holding no duplicate keys (vUB/pUB are keyed
//     associatively), with their key indexes in step with their key rows;
//   - training counters consistent (vUB hits are positive trainings).
//
// It returns the first violation found, nil when clean.
func (f *Filter) CheckBounds() error {
	for i, t := range f.tables {
		for idx, w := range t.weights {
			if w < t.min || w > t.max {
				return fmt.Errorf("filter-weight-bounds: %s table %d entry %d holds %d outside [%d,%d]",
					f.cfg.Name, i, idx, w, t.min, t.max)
			}
		}
	}
	for i, c := range f.sysWts {
		if c.value < c.min || c.value > c.max {
			return fmt.Errorf("filter-counter-bounds: %s system counter %d holds %d outside [%d,%d]",
				f.cfg.Name, i, c.value, c.min, c.max)
		}
	}
	if f.level < 0 || f.level >= len(f.levels) {
		return fmt.Errorf("filter-threshold-range: %s ladder index %d outside [0,%d)", f.cfg.Name, f.level, len(f.levels))
	}
	for _, ub := range []struct {
		name string
		b    *UpdateBuffer
	}{{"vUB", f.vub}, {"pUB", f.pub}} {
		if err := ub.b.checkBounds(); err != nil {
			return fmt.Errorf("filter-%s-%w", ub.name, err)
		}
	}
	if f.FalseNegativeHits > f.PositiveTrainings {
		return fmt.Errorf("filter-training-count: %s vUB hits %d exceed positive trainings %d",
			f.cfg.Name, f.FalseNegativeHits, f.PositiveTrainings)
	}
	return nil
}

// checkBounds verifies an update buffer holds no duplicate keys, and that
// its key index, free-slot bitmap and insertion order agree with its key
// row (index-desync).
func (b *UpdateBuffer) checkBounds() error {
	seen := make(map[uint64]struct{}, len(b.keys))
	for _, k := range b.keys {
		if k == emptyKey {
			continue
		}
		if _, dup := seen[k]; dup {
			return fmt.Errorf("duplicate-key: key %#x held twice", k)
		}
		seen[k] = struct{}{}
	}
	for i, k := range b.keys {
		if free := b.free[i/64]&(1<<(i%64)) != 0; free != (k == emptyKey) {
			return fmt.Errorf("index-desync: slot %d holds key %#x but its free bit is %v", i, k, free)
		}
		if k != emptyKey && b.index.Get(k) != i {
			return fmt.Errorf("index-desync: key %#x in slot %d, key index says %d", k, i, b.index.Get(k))
		}
	}
	if b.index.Len() != len(seen) {
		return fmt.Errorf("index-desync: key index holds %d keys for %d held slots", b.index.Len(), len(seen))
	}
	n := 0
	for i := b.oldest; i >= 0 && n <= len(b.keys); i = b.order[i].newer {
		n++
	}
	if n != len(seen) {
		return fmt.Errorf("index-desync: insertion order links %d slots for %d held", n, len(seen))
	}
	return nil
}
