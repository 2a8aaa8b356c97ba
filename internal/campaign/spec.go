package campaign

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Cell is one entry of a campaign: a single simulation with everything
// that determines its outcome captured by value. A cell is either
// single-core (Config + Workload) or multi-core (Multi + Mix, workload i
// on core i).
type Cell struct {
	// ID names the cell within its campaign — unique, stable across
	// re-runs (it keys the report and the event stream; the cache is keyed
	// by content, not ID).
	ID string

	// Config and Workload define a single-core cell.
	Config   sim.Config
	Workload trace.Workload

	// Multi and Mix, when Multi is non-nil, define a multi-core cell
	// instead; Config/Workload are ignored.
	Multi *sim.MultiConfig
	Mix   []trace.Workload
}

// isMix reports whether the cell is multi-core.
func (c *Cell) isMix() bool { return c.Multi != nil }

// key returns the cell's content address (ErrUncacheable for
// fault-injected configurations).
func (c *Cell) key() (Key, error) {
	if c.isMix() {
		return MixKeyOf(*c.Multi, c.Mix)
	}
	return KeyOf(c.Config, c.Workload)
}

// Spec is a whole campaign: a named, ordered list of independent cells.
type Spec struct {
	// Name is a human-readable label; it affects neither execution nor
	// any cache key.
	Name string
	// Cells start in this order. No cell reads another's result, so a
	// failed cell is ledgered and the rest of the matrix still fills in.
	Cells []Cell
}

// Validate checks the spec: non-empty unique IDs and mix cells shaped to
// their core count.
func (s *Spec) Validate() error {
	seen := make(map[string]bool, len(s.Cells))
	for i := range s.Cells {
		c := &s.Cells[i]
		if c.ID == "" {
			return fmt.Errorf("campaign: cell %d has empty ID", i)
		}
		if seen[c.ID] {
			return fmt.Errorf("campaign: duplicate cell ID %q", c.ID)
		}
		seen[c.ID] = true
		if c.isMix() && len(c.Mix) != c.Multi.Cores {
			return fmt.Errorf("campaign: cell %q: mix has %d workloads for %d cores", c.ID, len(c.Mix), c.Multi.Cores)
		}
	}
	return nil
}
