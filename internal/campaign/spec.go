package campaign

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Cell is one node of a campaign DAG: a single simulation with everything
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

	// After lists cell IDs that must complete before this cell starts.
	// Dependencies express ordering and priority (baselines before the
	// speedup columns that will be read against them), not data flow: a
	// failed dependency does not cancel its dependents — each cell's
	// result is independent, so the rest of the matrix still fills in and
	// the failure is ledgered on the cell that actually failed.
	After []string
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

// Spec is a whole campaign: a named set of cells forming a DAG.
type Spec struct {
	// Name is a human-readable label; it affects neither execution nor
	// any cache key.
	Name string
	// Cells are the DAG nodes. Ready cells start in this order, but order
	// is not a constraint: use After for constraints.
	Cells []Cell
}

// Validate checks the spec: non-empty unique IDs, dependencies that exist,
// no cycles, and mix cells shaped to their core count.
func (s *Spec) Validate() error {
	index := make(map[string]int, len(s.Cells))
	for i := range s.Cells {
		c := &s.Cells[i]
		if c.ID == "" {
			return fmt.Errorf("campaign: cell %d has empty ID", i)
		}
		if _, dup := index[c.ID]; dup {
			return fmt.Errorf("campaign: duplicate cell ID %q", c.ID)
		}
		index[c.ID] = i
		if c.isMix() && len(c.Mix) != c.Multi.Cores {
			return fmt.Errorf("campaign: cell %q: mix has %d workloads for %d cores", c.ID, len(c.Mix), c.Multi.Cores)
		}
	}
	for i := range s.Cells {
		c := &s.Cells[i]
		for _, dep := range c.After {
			if dep == c.ID {
				return fmt.Errorf("campaign: cell %q depends on itself", c.ID)
			}
			if _, ok := index[dep]; !ok {
				return fmt.Errorf("campaign: cell %q depends on unknown cell %q", c.ID, dep)
			}
		}
	}
	// Kahn's algorithm: anything left un-emitted sits on a cycle.
	indeg := make([]int, len(s.Cells))
	dependents := make([][]int, len(s.Cells))
	for i := range s.Cells {
		for _, dep := range s.Cells[i].After {
			indeg[i]++
			j := index[dep]
			dependents[j] = append(dependents[j], i)
		}
	}
	queue := make([]int, 0, len(s.Cells))
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	emitted := 0
	for len(queue) > 0 {
		i := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		emitted++
		for _, d := range dependents[i] {
			if indeg[d]--; indeg[d] == 0 {
				queue = append(queue, d)
			}
		}
	}
	if emitted != len(s.Cells) {
		return fmt.Errorf("campaign: dependency cycle among %d cell(s)", len(s.Cells)-emitted)
	}
	return nil
}
