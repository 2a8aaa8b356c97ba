package campaign

import (
	"context"
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
)

// localBackend executes cells in-process on the calling goroutine. It is
// stateless: concurrency, retries, timeouts and the cache all live
// in the engine, so this backend is only the simulation step.
type localBackend struct{}

// Local returns the in-process execution backend (the default when no
// WithBackend option is given). The returned backend is shared and
// stateless.
func Local() Backend { return localBackend{} }

// ExecuteCell runs one attempt of c, converting panics into *sim.RunError
// so a poisoned cell cannot take the campaign down.
func (localBackend) ExecuteCell(ctx context.Context, c *Cell, _ EventSink) (runs []*stats.Run, err error) {
	// RunError labels carry the workload name for single-core cells and
	// the cell ID for mixes.
	label := c.ID
	if !c.isMix() {
		label = c.Workload.Name
	}
	defer func() {
		if r := recover(); r != nil {
			runs = nil
			err = &sim.RunError{
				Workload: label, Stage: "measure", Panicked: true,
				Err: fmt.Errorf("recovered panic: %v", r),
			}
		}
	}()
	if c.isMix() {
		ms, merr := sim.NewMulti(*c.Multi)
		if merr != nil {
			return nil, &sim.RunError{Workload: c.ID, Stage: "setup", Err: merr}
		}
		return ms.RunMix(ctx, c.Mix)
	}
	run, rerr := sim.RunWorkload(ctx, c.Config, c.Workload)
	if rerr != nil {
		return nil, rerr
	}
	return []*stats.Run{run}, nil
}
