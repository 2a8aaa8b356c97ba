package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// span is one traced interval. Spans without a parent are operations, and
// Op names the operation every span belongs to. An aggregate span stands
// for many short calls made inside its parent, such as reader and policy
// calls: it covers the parent's interval, Calls counts the calls and NetNs
// sums their durations less the cost of an empty span.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	Calls  uint64  `json:"calls,omitempty"`
	NetNs  float64 `json:"net_ns,omitempty"`
}

// recorder keeps a traced pass's spans in memory until the run ends. It is
// safe for the campaign's concurrent workers.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

// open starts a span now and returns its ID.
func (r *recorder) open(name string, parent int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	op := id
	if parent != 0 {
		op = r.spans[parent-1].Op
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: time.Since(r.epoch).Nanoseconds()})
	return id
}

// close ends a span now.
func (r *recorder) close(id int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = time.Since(r.epoch).Nanoseconds()
}

// aggregate records the calls a made inside parent, which must be closed.
func (r *recorder) aggregate(name string, parent int, a agg, emptyNs float64) {
	if a.calls == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.spans[parent-1]
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Op: p.Op, Name: name,
		Start: p.Start, End: p.End, Calls: a.calls, NetNs: a.net(emptyNs),
	})
}

// agg sums many short calls without recording each one.
type agg struct {
	calls uint64
	ns    int64
}

func (a *agg) since(t time.Time) {
	a.calls++
	a.ns += int64(time.Since(t))
}

func (a *agg) merge(b agg) {
	a.calls += b.calls
	a.ns += b.ns
}

// net is the summed duration less the measured cost of an empty span per
// call.
func (a agg) net(emptyNs float64) float64 {
	return float64(a.ns) - emptyNs*float64(a.calls)
}

// perCall is the mean net duration of one call, or 0 without calls.
func (a agg) perCall(emptyNs float64) float64 { return ratio(a.net(emptyNs), float64(a.calls)) }

// emptySpanNs measures what timing a call costs around no call at all.
func emptySpanNs() float64 {
	var a agg
	const n = 1 << 20
	for i := 0; i < n; i++ {
		a.since(time.Now())
	}
	return float64(a.ns) / n
}

// timedPolicy forwards to a system's page-cross policy and times every
// call: Decide into decide, the training and epoch hooks into train.
type timedPolicy struct {
	inner         core.Policy
	decide, train agg
	issued        uint64 // Decide calls that issued the prefetch
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Decide(in core.Input) (issue, allowWalk bool, tag core.Tag) {
	t := time.Now()
	issue, allowWalk, tag = p.inner.Decide(in)
	p.decide.since(t)
	if issue {
		p.issued++
	}
	return issue, allowWalk, tag
}

func (p *timedPolicy) RecordIssue(paLine uint64, tag core.Tag) {
	t := time.Now()
	p.inner.RecordIssue(paLine, tag)
	p.train.since(t)
}

func (p *timedPolicy) RecordDiscard(vaLine uint64, tag core.Tag) {
	t := time.Now()
	p.inner.RecordDiscard(vaLine, tag)
	p.train.since(t)
}

func (p *timedPolicy) OnDemandMiss(vaLine uint64) {
	t := time.Now()
	p.inner.OnDemandMiss(vaLine)
	p.train.since(t)
}

func (p *timedPolicy) OnDemandHitPCB(paLine uint64) {
	t := time.Now()
	p.inner.OnDemandHitPCB(paLine)
	p.train.since(t)
}

func (p *timedPolicy) OnEvictPCB(paLine uint64, servedHit bool) {
	t := time.Now()
	p.inner.OnEvictPCB(paLine, servedHit)
	p.train.since(t)
}

func (p *timedPolicy) Tick(state core.SystemState) {
	t := time.Now()
	p.inner.Tick(state)
	p.train.since(t)
}

// timedReader forwards to a workload's reader and times every Next and
// NextBatch call; Err and Close reach the reader when it has them.
type timedReader struct {
	inner  trace.BatchReader
	next   agg
	instrs uint64 // instructions delivered
}

func newTimedReader(r trace.Reader) (*timedReader, error) {
	br, ok := r.(trace.BatchReader)
	if !ok {
		return nil, fmt.Errorf("reader %T has no NextBatch to forward", r)
	}
	return &timedReader{inner: br}, nil
}

func (r *timedReader) Next() (trace.Instr, bool) {
	t := time.Now()
	in, ok := r.inner.Next()
	r.next.since(t)
	if ok {
		r.instrs++
	}
	return in, ok
}

func (r *timedReader) NextBatch(max int) []trace.Instr {
	t := time.Now()
	b := r.inner.NextBatch(max)
	r.next.since(t)
	r.instrs += uint64(len(b))
	return b
}

func (r *timedReader) Reset() { r.inner.Reset() }

func (r *timedReader) Err() error {
	if e, ok := r.inner.(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}

func (r *timedReader) Close() error {
	if c, ok := r.inner.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// tracedRun is one simulation of a traced pass with its timing shims.
type tracedRun struct {
	run    *stats.Run
	sys    *sim.System
	policy *timedPolicy // nil on the sampled path, where sim owns the policy
	reader *timedReader
}

// runTraced runs one cell with its reader, and in full detail its policy,
// behind timing shims, recording spans under parent.
func runTraced(ctx context.Context, rec *recorder, parent int, c cell) (tracedRun, error) {
	r, err := c.w.NewReader()
	if err != nil {
		return tracedRun{}, err
	}
	rd, err := newTimedReader(r)
	if err != nil {
		closeReader(r)
		return tracedRun{}, err
	}
	defer rd.Close()
	var tr tracedRun
	if c.cfg.Sample.Enabled {
		cfg := c.cfg
		// The interval placement seed, set the way sim.RunWorkload sets it.
		if cfg.Sample.Seed == 0 && c.w.Config.Seed != 0 {
			cfg.Sample.Seed = c.w.Config.Seed
		}
		id := rec.open("sim.run_trace", parent)
		tr.run, tr.sys, err = sim.RunTraceSystem(ctx, cfg, c.w.Name, c.w.Suite, rd)
		rec.close(id)
		tr.reader = rd
	} else {
		tr, err = replay(ctx, rec, parent, c, rd)
	}
	if err == nil {
		err = rd.Err()
	}
	return tr, err
}

// replay re-enacts sim.RunTraceSystem for a full-detail cell through the
// public API, with the system's policy swapped for a timing shim. The
// traced pass checks that a replay yields the real path's digest, which
// catches any drift between the two.
func replay(ctx context.Context, rec *recorder, parent int, c cell, rd *timedReader) (tracedRun, error) {
	id := rec.open("sim.build", parent)
	sys, err := sim.New(c.cfg)
	rec.close(id)
	if err != nil {
		return tracedRun{}, err
	}
	pol := &timedPolicy{inner: sys.Policy}
	sys.Policy = pol
	phase := func(name string, n uint64) error {
		id := rec.open(name, parent)
		defer rec.close(id)
		sys.Core.Attach(rd, n)
		return wrapf(sys.Run(ctx), "%s", name)
	}
	if c.cfg.WarmupInstrs > 0 {
		if err := phase("sim.warmup", c.cfg.WarmupInstrs); err != nil {
			return tracedRun{}, err
		}
		sys.ResetStats()
	}
	if err := phase("sim.measure", c.cfg.SimInstrs); err != nil {
		return tracedRun{}, err
	}
	return tracedRun{run: sys.Collect(c.w.Name, c.w.Suite), sys: sys, policy: pol, reader: rd}, nil
}

// registryCounters are the registry values the layer metrics read beyond
// stats.Run.
var registryCounters = []string{
	"dram.reads", "dram.row_hits", "dram.row_misses",
	"prefetch.l1d.trains", "prefetch.l1d.candidates",
	"sample.segments", "sample.measured_instrs",
}

// layerCounts sums what a traced pass's runs report, layer by layer.
type layerCounts struct {
	mu      sync.Mutex
	run     stats.Run // summed statistics of the measured phases
	runs    int
	covered uint64 // instructions simulated or covered, warm-up included
	budget  uint64 // measured-phase budgets
	reg     map[string]uint64
	next    agg
	instrs  uint64 // instructions the readers delivered
	// Policy calls and the instructions of the runs they were made in.
	decide, train        agg
	issued, policyInstrs uint64
}

func (l *layerCounts) add(c cell, tr tracedRun) {
	l.mu.Lock()
	defer l.mu.Unlock()
	stats.AddDelta(&l.run, tr.run, &stats.Run{})
	l.runs++
	l.covered += c.instrs
	l.budget += c.cfg.SimInstrs
	if l.reg == nil {
		l.reg = map[string]uint64{}
	}
	for _, name := range registryCounters {
		v, _ := tr.sys.Metrics.Value(name)
		l.reg[name] += v
	}
	l.next.merge(tr.reader.next)
	l.instrs += tr.reader.instrs
	if tr.policy != nil {
		l.addPolicy(c, tr.policy)
	}
}

// addPolicy adds one run's policy calls; the caller holds l.mu.
func (l *layerCounts) addPolicy(c cell, p *timedPolicy) {
	l.decide.merge(p.decide)
	l.train.merge(p.train)
	l.issued += p.issued
	l.policyInstrs += c.instrs
}

// tracer is one traced pass: spans in memory, a CPU profile on disk and
// the layer counters of every run it traced.
type tracer struct {
	rec     recorder
	counts  layerCounts
	emptyNs float64
	prof    *os.File
	dir     string
	gc0     uint32
}

func startTrace(e *env) (*tracer, error) {
	dir := e.opts.traceDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	t := &tracer{emptyNs: emptySpanNs(), prof: f, dir: dir}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.gc0 = ms.NumGC
	t.rec.epoch = time.Now()
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return t, nil
}

// stop ends the profile and returns the garbage collections the pass ran.
func (t *tracer) stop() (uint32, error) {
	pprof.StopCPUProfile()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC - t.gc0, t.prof.Close()
}

// aggregates records a closed span's reader and policy calls.
func (t *tracer) aggregates(parent int, tr tracedRun) {
	t.rec.aggregate("trace.next", parent, tr.reader.next, t.emptyNs)
	if tr.policy != nil {
		t.rec.aggregate("core.decide", parent, tr.policy.decide, t.emptyNs)
		t.rec.aggregate("core.train", parent, tr.policy.train, t.emptyNs)
	}
}

// finish attributes the profile, computes the per-layer metrics and writes
// spans.json and layers.json beside cpu.pprof.
func (t *tracer) finish(ctx context.Context, e *env, in layerInputs) (map[string]metricValue, error) {
	out, err := exec.CommandContext(ctx, "go", "tool", "pprof", "-traces", "-symbolize=none", t.prof.Name()).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	cpu, total, err := attribute(string(out))
	if err != nil {
		return nil, err
	}
	in.cpu, in.cpuTotal = cpu, total
	in.hostMops = median(e.probe.rates)
	m := perLayer(in, &t.counts, t.emptyNs)
	if err := writeJSON(filepath.Join(t.dir, "spans.json"), t.rec.spans); err != nil {
		return nil, err
	}
	layers := map[string]any{
		"workload": e.opts.workload, "seed": e.opts.seed,
		"metrics": m, "cpu_seconds": cpu, "profile_seconds": total, "notes": e.notes,
	}
	return m, writeJSON(filepath.Join(t.dir, "layers.json"), layers)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// traceCells is the traced run of the detail and sampled workloads: one
// untraced round on the real path, then the traced pass round-robin for
// the run's budget, each traced run checked against its untraced digest.
func traceCells(ctx context.Context, e *env, cells []cell) (map[string]metricValue, error) {
	buildMs := measureBuild(e, cells, false)
	want := make([]string, len(cells))
	base := runCells(ctx, e, cells, 0, want)

	t, err := startTrace(e)
	if err != nil {
		return nil, err
	}
	var traced []opSample
	first := make([]*stats.Run, len(cells))
	start := time.Now()
	// One probe closes the whole pass instead of one per operation, so the
	// profile holds little of the benchmark's own work.
	_, factor := e.probe.time(func() {
		for n := 0; n < len(cells) || time.Since(start) < e.budget(); n++ {
			i := n % len(cells)
			c := cells[i]
			opStart := time.Now()
			op := t.rec.open(c.id, 0)
			tr, err := runTraced(ctx, &t.rec, op, c)
			t.rec.close(op)
			raw := time.Since(opStart)
			if !e.record(wrapf(checkRun(c, tr.run, err, &want[i]), "traced")) {
				if ctx.Err() != nil {
					break
				}
				continue
			}
			t.aggregates(op, tr)
			t.counts.add(c, tr)
			if first[i] == nil {
				first[i] = tr.run
			}
			traced = append(traced, opSample{cell: i, raw: raw})
		}
	})
	wall := time.Since(start)
	gcs, err := t.stop()
	if err != nil {
		return nil, err
	}

	in := layerInputs{buildMs: buildMs, gcs: gcs, rawKips: cellKips(cells, base, false), factor: factor}
	var busy float64
	perCell := make([][]float64, len(cells))
	for _, s := range traced {
		s.factor = factor
		in.execMs = append(in.execMs, s.seconds()*1e3)
		busy += s.raw.Seconds()
		perCell[s.cell] = append(perCell[s.cell], s.seconds())
	}
	in.opMs = in.execMs
	in.busyFrac = busy / wall.Seconds()
	for _, b := range base {
		in.coldS += b.seconds()
	}
	var over []float64
	for _, b := range base {
		if ts := perCell[b.cell]; len(ts) > 0 {
			over = append(over, median(ts)/b.seconds()-1)
		}
	}
	in.overhead = median(over)

	if cells[0].cfg.Sample.Enabled {
		in.fidelity = traceFidelity(ctx, e, t)
	}
	in.dripperVsDiscard = dripperVsDiscard(ctx, e, cells, first)
	in.keyUs, in.putUs, in.getUs = timeKeyStore(e, cells, first)
	e.notef("digest %s over %d cells", digestOf(want), len(cells))
	e.notef("%d untraced and %d traced operations", len(base), len(traced))
	return t.finish(ctx, e, in)
}
