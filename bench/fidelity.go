package main

import (
	"context"
	"math"

	"repro/internal/sim"
	"repro/internal/stats"
)

// fidelityRow is one family's full-detail and sampled results at the golden
// table's setting, on the metrics the paper reports.
type fidelityRow struct {
	name             string
	fullIPC, sampIPC float64
	fullPGC, sampPGC float64 // page-cross prefetches issued per kilo-instruction
}

func (r fidelityRow) ipcErrPct() float64 {
	return 100 * math.Abs(r.sampIPC-r.fullIPC) / r.fullIPC
}

// pgcErrPct floors the reference at 1 PKI, so a family that issues almost
// no page-cross prefetches cannot turn a tiny absolute error into a huge
// relative one.
func (r fidelityRow) pgcErrPct() float64 {
	return 100 * math.Abs(r.sampPGC-r.fullPGC) / math.Max(r.fullPGC, 1)
}

func pgcPKI(r *stats.Run) float64 {
	return float64(r.L1D.PGCIssued) * 1000 / float64(r.Core.Instructions)
}

// meanErr is the mean of one error over the rows, 0 without rows: a
// full-detail workload has no sampling error. Unlike a geomean of ratios,
// errors of opposite sign cannot cancel.
func meanErr(rows []fidelityRow, f func(fidelityRow) float64) float64 {
	sum := 0.0
	for _, r := range rows {
		sum += f(r)
	}
	return ratio(sum, float64(len(rows)))
}

// fidelity runs every family in full detail and sampled through
// sim.RunWorkload and returns one row per family, with the full runs.
func fidelity(ctx context.Context, seed uint64, sc scale) ([]fidelityRow, []*stats.Run, error) {
	full, sampled, err := fidelityCells(seed, sc)
	if err != nil {
		return nil, nil, err
	}
	rows := make([]fidelityRow, len(full))
	fullRuns := make([]*stats.Run, len(full))
	for i := range full {
		f, err := sim.RunWorkload(ctx, full[i].cfg, full[i].w)
		if err != nil {
			return nil, nil, err
		}
		s, err := sim.RunWorkload(ctx, sampled[i].cfg, sampled[i].w)
		if err != nil {
			return nil, nil, err
		}
		rows[i] = fidelityRow{name: full[i].id, fullIPC: f.IPC(), sampIPC: s.IPC(), fullPGC: pgcPKI(f), sampPGC: pgcPKI(s)}
		fullRuns[i] = f
	}
	return rows, fullRuns, nil
}

// dripperVsDiscard is the paper's headline comparison on a workload's
// instances, in the workload's own mode: the geomean over instances of
// DRIPPER's IPC over Discard's, less one, in percent. runs holds each cell's
// result, nil where the cell failed; a counterpart that is not among the
// cells is simulated here.
func dripperVsDiscard(ctx context.Context, e *env, cells []cell, runs []*stats.Run) float64 {
	got := map[string]*stats.Run{}
	for i, c := range cells {
		got[string(c.cfg.Policy)+"/"+c.w.Name] = runs[i]
	}
	seen := map[string]bool{}
	var speedups []float64
	for _, c := range cells {
		if seen[c.w.Name] || (c.cfg.Policy != sim.PolicyDripper && c.cfg.Policy != sim.PolicyDiscard) {
			continue
		}
		seen[c.w.Name] = true
		run := func(p sim.PolicyKind) *stats.Run {
			key := string(p) + "/" + c.w.Name
			if r, ok := got[key]; ok {
				return r
			}
			cfg := c.cfg
			cfg.Policy = p
			r, err := sim.RunWorkload(ctx, cfg, c.w)
			if !e.record(wrapf(err, "%s under %s", c.w.Name, p)) {
				r = nil
			}
			return r
		}
		if dripper, discard := run(sim.PolicyDripper), run(sim.PolicyDiscard); dripper != nil && discard != nil {
			speedups = append(speedups, stats.Speedup(dripper, discard))
		}
	}
	return 100 * (geomean(speedups) - 1)
}

// traceFidelity is the sampled workload's fidelity step in the traced run.
// The sampled path builds its system inside sim, out of the benchmark's
// reach, so the policy calls of this workload are timed on the replayed
// full-detail references instead; each replay must match its real run.
func traceFidelity(ctx context.Context, e *env, t *tracer) []fidelityRow {
	rows, fullRuns, err := fidelity(ctx, e.opts.seed, e.opts.scale)
	if !e.record(wrapf(err, "fidelity step")) {
		return nil
	}
	full, _, _ := fidelityCells(e.opts.seed, e.opts.scale)
	for i, c := range full {
		want := digest(fullRuns[i])
		op := t.rec.open("fidelity "+c.id, 0)
		tr, err := runTraced(ctx, &t.rec, op, c)
		t.rec.close(op)
		if !e.record(wrapf(checkRun(c, tr.run, err, &want), "fidelity replay")) {
			continue
		}
		t.aggregates(op, tr)
		t.counts.mu.Lock()
		t.counts.addPolicy(c, tr.policy)
		t.counts.mu.Unlock()
	}
	return rows
}
