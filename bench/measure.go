package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// env is one benchmark process's shared state.
type env struct {
	opts  options
	probe *prober
	log   io.Writer
	work  string // scratch directory for caches and stores, removed at exit
	// attempted and failed count operations: constructions, simulations,
	// campaign runs and the output checks made on them.
	attempted, failed int
	notes             []string // printed as "# ..." lines before the result
}

// record counts one operation and reports whether it succeeded.
func (e *env) record(err error) bool {
	e.attempted++
	if err != nil {
		e.failed++
		fmt.Fprintf(e.log, "bench: FAIL %v\n", err)
		return false
	}
	return true
}

func (e *env) notef(format string, args ...any) {
	e.notes = append(e.notes, fmt.Sprintf(format, args...))
}

// budget is how long a measured loop runs.
func (e *env) budget() time.Duration {
	return time.Duration(e.opts.seconds * float64(time.Second))
}

// digest is the SHA-256 of a run's JSON encoding: equal digests mean every
// simulated counter matched.
func digest(r *stats.Run) string {
	// A Run holds only strings and integers, so encoding cannot fail.
	b, _ := json.Marshal(r)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// digestOf folds digests, in order, into one.
func digestOf(ds []string) string {
	h := sha256.New()
	for _, d := range ds {
		io.WriteString(h, d)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkRun validates one simulation's output: it succeeded, retired its
// whole budget (sampled runs retire their measured intervals, which must
// not be empty), and matches the digest of the cell's first run, which
// want holds once set.
func checkRun(c cell, run *stats.Run, err error, want *string) error {
	if err != nil {
		return fmt.Errorf("%s: %w", c.id, err)
	}
	if run.Core.Cycles == 0 || run.Core.Instructions == 0 ||
		(!c.cfg.Sample.Enabled && run.Core.Instructions != c.cfg.SimInstrs) {
		return fmt.Errorf("%s: retired %d of %d instructions in %d cycles",
			c.id, run.Core.Instructions, c.cfg.SimInstrs, run.Core.Cycles)
	}
	d := digest(run)
	if *want == "" {
		*want = d
	} else if d != *want {
		return fmt.Errorf("%s: digest %.12s differs from the first run's %.12s", c.id, d, *want)
	}
	return nil
}

// closeReader releases a reader that holds a file (ChampSim traces).
func closeReader(r trace.Reader) {
	if c, ok := r.(io.Closer); ok {
		c.Close()
	}
}

// construct builds one cell's system and reader, plus its cache key when
// keyed, and returns the raw time of the whole construction and of sim.New
// alone; both are 0 when it failed.
func construct(e *env, c cell, keyed bool) (whole, build time.Duration) {
	start := time.Now()
	sys, err := sim.New(c.cfg)
	built := time.Now()
	var r trace.Reader
	if err == nil {
		r, err = c.w.NewReader()
	}
	if err == nil && keyed {
		_, err = campaign.KeyOf(c.cfg, c.w)
	}
	end := time.Now()
	runtime.KeepAlive(sys)
	if r != nil {
		closeReader(r)
	}
	if !e.record(wrapf(err, "%s: set-up", c.id)) {
		return 0, 0
	}
	return end.Sub(start), built.Sub(start)
}

// setupBefore builds c setupPerOp times right before a timed operation and
// returns the median raw time of one construction, which the operation's
// probes calibrate. Spread over the whole run, set-up sees the same host as
// the operations: on eight seeds its median spread 6% from run to run,
// where one batch of 400 constructions, timing a single moment, spread 24%.
func setupBefore(e *env, c cell, keyed bool) time.Duration {
	var ds []float64
	for i := 0; i < e.opts.scale.setupPerOp; i++ {
		if d, _ := construct(e, c, keyed); d > 0 {
			ds = append(ds, float64(d))
		}
	}
	if len(ds) == 0 {
		return 0
	}
	return time.Duration(median(ds))
}

// measureBuild is sim.New's calibrated median time in milliseconds over
// setupPerOp constructions of every cell.
func measureBuild(e *env, cells []cell, keyed bool) float64 {
	var build []float64
	_, f := e.probe.time(func() {
		for i := 0; i < e.opts.scale.setupPerOp*len(cells); i++ {
			if _, d := construct(e, cells[i%len(cells)], keyed); d > 0 {
				build = append(build, d.Seconds())
			}
		}
	})
	return median(build) * f * 1e3
}

func wrapf(err error, format string, args ...any) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf(format+": %w", append(args, err)...)
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// opSample is one timed simulation.
type opSample struct {
	cell   int
	raw    time.Duration
	factor float64 // calibration: measured/ref probe rate
	allocs uint64
	setup  time.Duration // median raw construction time right before it
}

// seconds is the operation's duration on the reference host.
func (s opSample) seconds() float64 { return s.raw.Seconds() * s.factor }

// runCells runs cells round-robin through sim.RunWorkload, each between
// two probes and after its set-up is timed, until the budget has passed and
// every cell has run once. want holds each cell's digest and is filled on
// first use.
func runCells(ctx context.Context, e *env, cells []cell, budget time.Duration, want []string) []opSample {
	var samples []opSample
	start := time.Now()
	for n := 0; n < len(cells) || time.Since(start) < budget; n++ {
		i := n % len(cells)
		c := cells[i]
		var run *stats.Run
		var err error
		var m0, m1 runtime.MemStats
		var setup, raw time.Duration
		_, f := e.probe.time(func() {
			setup = setupBefore(e, c, false)
			runtime.ReadMemStats(&m0)
			start := time.Now()
			run, err = sim.RunWorkload(ctx, c.cfg, c.w)
			raw = time.Since(start)
			runtime.ReadMemStats(&m1)
		})
		if e.record(checkRun(c, run, err, &want[i])) {
			samples = append(samples, opSample{cell: i, raw: raw, factor: f, allocs: m1.Mallocs - m0.Mallocs, setup: setup})
		}
		if ctx.Err() != nil {
			break
		}
	}
	return samples
}

// perCell is the geomean over cells of each cell's median of v.
func perCell(cells []cell, samples []opSample, v func(opSample) float64) float64 {
	per := make([][]float64, len(cells))
	for _, s := range samples {
		per[s.cell] = append(per[s.cell], v(s))
	}
	meds := make([]float64, 0, len(per))
	for _, xs := range per {
		if len(xs) > 0 {
			meds = append(meds, median(xs))
		}
	}
	return geomean(meds)
}

// cellKips is the geomean over cells of each cell's median simulated
// kinstr/s; calibrated uses reference-host time, raw the host's own.
func cellKips(cells []cell, samples []opSample, calibrated bool) float64 {
	return perCell(cells, samples, func(s opSample) float64 {
		sec := s.raw.Seconds()
		if calibrated {
			sec = s.seconds()
		}
		return float64(cells[s.cell].instrs) / 1e3 / sec
	})
}

// measureCells is the end-to-end run of the detail and sampled workloads:
// a closed loop with one simulation in flight.
func measureCells(ctx context.Context, e *env, cells []cell) map[string]metricValue {
	want := make([]string, len(cells))
	samples := runCells(ctx, e, cells, e.budget(), want)

	// Cells differ several-fold in speed and allocations, so a figure over
	// all operations would move with how many of each the budget fitted;
	// each cell's own median does not.
	opMs := perCell(cells, samples, func(s opSample) float64 { return s.seconds() * 1e3 })
	setupS := perCell(cells, samples, func(s opSample) float64 { return s.setup.Seconds() * s.factor })
	allocs := perCell(cells, samples, func(s opSample) float64 { return float64(s.allocs) / (float64(cells[s.cell].instrs) / 1e3) })
	e.notef("digest %s over %d cells", digestOf(want), len(cells))
	e.notef("%d operations; raw sim_kips %.6g; median probe %.1f Mops/s", len(samples), cellKips(cells, samples, false), median(e.probe.rates))
	return map[string]metricValue{
		"setup_s":           {setupS, "s"},
		"sim_kips":          {cellKips(cells, samples, true), "kinstr/s"},
		"op_ms_p50":         {opMs, "ms"},
		"allocs_per_kinstr": {allocs, "allocs/kinstr"},
		"peak_rss_mb":       {peakRSSMiB(), "MiB"},
	}
}
