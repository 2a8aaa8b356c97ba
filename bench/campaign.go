package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/stats"
)

// warmBatch is how many warm campaign runs share one pair of probes: a warm
// run takes milliseconds, a probe about fifty.
const warmBatch = 25

func specOf(cells []cell) campaign.Spec {
	spec := campaign.Spec{Name: "bench"}
	for _, c := range cells {
		spec.Cells = append(spec.Cells, campaign.Cell{ID: c.id, Config: c.cfg, Workload: c.w})
	}
	return spec
}

// runCampaign runs the matrix on the cache at dir with the benchmark's
// worker count.
func runCampaign(ctx context.Context, spec campaign.Spec, dir string, opts ...campaign.Option) (*campaign.Report, error) {
	opts = append([]campaign.Option{campaign.WithCache(dir), campaign.WithWorkers(workers())}, opts...)
	return campaign.Run(ctx, spec, opts...)
}

// checkReport validates one campaign run. A cold run must simulate every
// cell; a warm run must serve every cell from the cache and simulate none.
// Every cell's result must match want, which the first run fills.
func checkReport(cells []cell, rep *campaign.Report, err error, warm bool, want []string) error {
	if err == nil {
		err = rep.Err()
	}
	if err != nil {
		return err
	}
	if warm && (rep.CacheHits != len(cells) || rep.Simulated != 0) {
		return fmt.Errorf("warm run served %d of %d cells from the cache and simulated %d", rep.CacheHits, len(cells), rep.Simulated)
	}
	if !warm && rep.Simulated != len(cells) {
		return fmt.Errorf("cold run simulated %d of %d cells", rep.Simulated, len(cells))
	}
	for i, c := range cells {
		run := rep.Runs[c.id]
		if run == nil {
			return fmt.Errorf("%s: no result", c.id)
		}
		if err := checkRun(c, run, nil, &want[i]); err != nil {
			return err
		}
	}
	return nil
}

// cold is one cold campaign run's measurements.
type cold struct {
	// started and cellS are each cell's start and simulation time, from
	// its started to its completed event, by cell index.
	started []time.Time
	cellS   []time.Duration
	wall    time.Duration
	allocs  float64 // allocations per simulated kinstr
	factor  float64 // the run's calibration, measured/ref
	runs    []*stats.Run
}

// samples are the run's cells as operations.
func (c cold) samples() []opSample {
	out := make([]opSample, len(c.cellS))
	for i, d := range c.cellS {
		out[i] = opSample{cell: i, raw: d, factor: c.factor}
	}
	return out
}

// coldRun runs the matrix on a fresh cache directory between two probes
// and times each cell's simulation from the campaign's events.
func coldRun(ctx context.Context, e *env, cells []cell, dir string, want []string, opts ...campaign.Option) (cold, bool) {
	if err := os.RemoveAll(dir); !e.record(wrapf(err, "clearing %s", dir)) {
		return cold{}, false
	}
	index := make(map[string]int, len(cells))
	for i, c := range cells {
		index[c.id] = i
	}
	c := cold{started: make([]time.Time, len(cells)), cellS: make([]time.Duration, len(cells)), runs: make([]*stats.Run, len(cells))}
	var mu sync.Mutex
	events := campaign.WithEvents(func(ev campaign.Event) {
		now := time.Now()
		mu.Lock()
		defer mu.Unlock()
		switch i := index[ev.Cell]; ev.Kind {
		case campaign.EventCellStarted:
			c.started[i] = now
		case campaign.EventCellCompleted:
			c.cellS[i] = now.Sub(c.started[i])
		}
	})
	var rep *campaign.Report
	var err error
	var m0, m1 runtime.MemStats
	c.wall, c.factor = e.probe.time(func() {
		runtime.ReadMemStats(&m0)
		rep, err = runCampaign(ctx, specOf(cells), dir, append(opts, events)...)
		runtime.ReadMemStats(&m1)
	})
	if !e.record(wrapf(checkReport(cells, rep, err, false, want), "cold run")) {
		return cold{}, false
	}
	var instrs uint64
	for i, cl := range cells {
		instrs += cl.instrs
		c.runs[i] = rep.Runs[cl.id]
	}
	c.allocs = float64(m1.Mallocs-m0.Mallocs) / (float64(instrs) / 1e3)
	return c, true
}

// warmRuns re-runs the matrix on dir's cache in probed batches until the
// budget since start has passed and at least minWarmRuns have run. It
// returns each run's calibrated latency in milliseconds, each batch's
// calibrated median set-up time in seconds, timed right before the batch,
// and the share of cells served from the cache.
func warmRuns(ctx context.Context, e *env, cells []cell, dir string, want []string, start time.Time, opts ...campaign.Option) (ms, setupS []float64, hitFrac float64) {
	spec := specOf(cells)
	hits, total := 0, 0
	for n := 0; n < e.opts.scale.minWarmRuns || time.Since(start) < e.budget(); {
		var raws []time.Duration
		var setup time.Duration
		_, f := e.probe.time(func() {
			setup = setupBefore(e, cells[n/warmBatch%len(cells)], true)
			for b := 0; b < warmBatch; b, n = b+1, n+1 {
				t := time.Now()
				rep, err := runCampaign(ctx, spec, dir, opts...)
				d := time.Since(t)
				if rep != nil {
					hits, total = hits+rep.CacheHits, total+rep.Total
				}
				if e.record(wrapf(checkReport(cells, rep, err, true, want), "warm run")) {
					raws = append(raws, d)
				}
			}
		})
		for _, d := range raws {
			ms = append(ms, d.Seconds()*1e3*f)
		}
		if setup > 0 {
			setupS = append(setupS, setup.Seconds()*f)
		}
		if ctx.Err() != nil {
			break
		}
	}
	return ms, setupS, ratio(float64(hits), float64(total))
}

// measureCampaign is the end-to-end run of the campaign workload: cold runs
// that simulate, hash keys and write the store, then warm re-runs that only
// hash keys and read it. Its sim_kips is per cell, like the detail
// workloads': a cold run's wall time also holds the idle tail of its last
// cells and the store writes, which the traced run's bench.cold_round_s
// reports.
func measureCampaign(ctx context.Context, e *env, cells []cell) map[string]metricValue {
	want := make([]string, len(cells))
	var samples []opSample
	var allocs, walls []float64
	dir := ""
	start := time.Now()
	for i := 0; i < e.opts.scale.coldRuns; i++ {
		dir = filepath.Join(e.work, fmt.Sprintf("cold-%d", i))
		if c, ok := coldRun(ctx, e, cells, dir, want); ok {
			samples = append(samples, c.samples()...)
			allocs = append(allocs, c.allocs)
			walls = append(walls, c.wall.Seconds()*c.factor)
		}
	}
	ms, setupS, _ := warmRuns(ctx, e, cells, dir, want, start)
	e.notef("digest %s over %d cells", digestOf(want), len(cells))
	e.notef("%d cold runs of median %.4gs and %d warm runs; raw sim_kips %.6g; median probe %.1f Mops/s",
		len(walls), median(walls), len(ms), cellKips(cells, samples, false), median(e.probe.rates))
	return map[string]metricValue{
		"setup_s":           {median(setupS), "s"},
		"sim_kips":          {cellKips(cells, samples, true), "kinstr/s"},
		"op_ms_p50":         {median(ms), "ms"},
		"allocs_per_kinstr": {median(allocs), "allocs/kinstr"},
		"peak_rss_mb":       {peakRSSMiB(), "MiB"},
	}
}

// timingBackend executes a traced campaign's cells. Full-detail
// single-core cells go through replay, so their policy and reader calls
// are timed as on the detail workloads; anything else is handed to
// campaign.Local().
type timingBackend struct {
	t   *tracer
	run int // the span of the campaign run
}

func (b *timingBackend) ExecuteCell(ctx context.Context, c *campaign.Cell, emit campaign.EventSink) ([]*stats.Run, error) {
	if c.Multi != nil || c.Config.Sample.Enabled {
		return campaign.Local().ExecuteCell(ctx, c, emit)
	}
	id := b.t.rec.open("campaign.exec "+c.ID, b.run)
	cl := cell{id: c.ID, cfg: c.Config, w: c.Workload, instrs: c.Config.WarmupInstrs + c.Config.SimInstrs}
	tr, err := runTraced(ctx, &b.t.rec, id, cl)
	b.t.rec.close(id)
	if err != nil {
		return nil, err
	}
	b.t.aggregates(id, tr)
	b.t.counts.add(cl, tr)
	return []*stats.Run{tr.run}, nil
}

func (b *timingBackend) Close() error { return nil }

// traceCampaign is the traced run of the campaign workload: one untraced
// cold run on the real backend, then a traced cold run through
// timingBackend, whose results must match, and traced warm re-runs.
func traceCampaign(ctx context.Context, e *env, cells []cell) (map[string]metricValue, error) {
	buildMs := measureBuild(e, cells, true)
	want := make([]string, len(cells))
	base, baseOK := coldRun(ctx, e, cells, filepath.Join(e.work, "untraced"), want)

	t, err := startTrace(e)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	be := &timingBackend{t: t}
	dir := filepath.Join(e.work, "traced")
	be.run = t.rec.open("campaign.cold", 0)
	traced, ok := coldRun(ctx, e, cells, dir, want, campaign.WithBackend(be))
	t.rec.close(be.run)

	var opMs []float64
	warmFrac := 0.0
	if ok {
		opMs, _, warmFrac = warmRuns(ctx, e, cells, dir, want, start)
	}
	gcs, err := t.stop()
	if err != nil {
		return nil, err
	}

	in := layerInputs{buildMs: buildMs, gcs: gcs, opMs: opMs, warmHitFrac: warmFrac, factor: traced.factor,
		rawKips: cellKips(cells, base.samples(), false), coldS: base.wall.Seconds() * base.factor}
	// Every cell is queued when the campaign starts, which the first cell
	// to start marks, and waits until a worker starts it.
	var first time.Time
	for _, st := range traced.started {
		if first.IsZero() || st.Before(first) {
			first = st
		}
	}
	var wait, busy float64
	for i, d := range traced.cellS {
		wait += traced.started[i].Sub(first).Seconds()
		busy += d.Seconds()
		in.execMs = append(in.execMs, d.Seconds()*1e3*in.factor)
	}
	in.queueWaitFrac = ratio(wait, wait+busy)
	in.busyFrac = ratio(busy, float64(workers())*traced.wall.Seconds())
	if baseOK && ok {
		in.overhead = cellKips(cells, base.samples(), true)/cellKips(cells, traced.samples(), true) - 1
	}
	runs := traced.runs
	if !ok {
		runs = make([]*stats.Run, len(cells))
	}
	in.dripperVsDiscard = dripperVsDiscard(ctx, e, cells, runs)
	in.keyUs, in.putUs, in.getUs = timeKeyStore(e, cells, runs)
	e.notef("digest %s over %d cells", digestOf(want), len(cells))
	e.notef("%d traced warm runs", len(opMs))
	return t.finish(ctx, e, in)
}
