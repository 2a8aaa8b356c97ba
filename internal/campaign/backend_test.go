package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// TestMain lets the test binary serve as its own proc-backend worker: the
// proc backend re-executes os.Executable, which under `go test` is this
// binary, and MaybeWorker diverts the spawned copies into worker mode.
func TestMain(m *testing.M) {
	MaybeWorker()
	os.Exit(m.Run())
}

// flatReport is a Report with the failure ledger lowered to strings, so a
// whole campaign outcome — results, errors, accounting — becomes one
// canonical JSON byte string for differential comparison across backends.
type flatReport struct {
	Runs      map[string]*stats.Run
	MixRuns   map[string][]*stats.Run
	Failures  []flatFailure
	CacheHits int
	Resumed   int
	Simulated int
	Total     int
}

type flatFailure struct {
	ID       string
	Attempts int
	Err      string
}

func canonicalReport(t *testing.T, rep *Report) []byte {
	t.Helper()
	fr := flatReport{
		Runs: rep.Runs, MixRuns: rep.MixRuns,
		CacheHits: rep.CacheHits, Resumed: rep.Resumed,
		Simulated: rep.Simulated, Total: rep.Total,
	}
	for _, f := range rep.Failures {
		fr.Failures = append(fr.Failures, flatFailure{ID: f.ID, Attempts: f.Attempts, Err: f.Err.Error()})
	}
	b, err := json.Marshal(fr)
	if err != nil {
		t.Fatalf("marshaling report: %v", err)
	}
	return b
}

// backendSpec builds the differential spec: three single-core cells over
// distinct workloads plus one 2-core mix, so both wire shapes are covered.
func backendSpec(t *testing.T) Spec {
	t.Helper()
	s := tinySpec(t, 3)
	per := tinyConfig(t)
	s.Cells = append(s.Cells, Cell{
		ID:    "mix0",
		Multi: &sim.MultiConfig{PerCore: per, Cores: 2},
		Mix:   []trace.Workload{workload(t, "spec.stream_s00"), workload(t, "gap.graph_s00")},
	})
	return s
}

func TestParseBackend(t *testing.T) {
	for _, spec := range []string{"", "local"} {
		bk, err := ParseBackend(spec, 4)
		if err != nil || bk != nil {
			t.Fatalf("ParseBackend(%q) = %v, %v; want nil, nil", spec, bk, err)
		}
	}
	for _, spec := range []string{"procs", "procs:3"} {
		bk, err := ParseBackend(spec, 4)
		if err != nil || bk == nil {
			t.Fatalf("ParseBackend(%q) = %v, %v; want backend, nil", spec, bk, err)
		}
		bk.Close()
	}
	if bk, err := ParseBackend("procs", 4); err != nil {
		t.Fatal(err)
	} else {
		if pb := bk.(*ProcBackend); pb.cfg.Workers != 4 {
			t.Fatalf("procs sized %d workers, want the engine width 4", pb.cfg.Workers)
		}
		bk.Close()
	}
	for _, spec := range []string{"procs:", "procs:0", "procs:-1", "procs:x", "daemon:", "daemon:localhost:1", "bogus"} {
		if _, err := ParseBackend(spec, 4); err == nil {
			t.Fatalf("ParseBackend(%q) accepted", spec)
		}
	}
}

// TestProcsMatchesLocal is the acceptance differential: the proc backend
// must produce a byte-identical CampaignReport to the local backend, cold
// and warm, including the multi-core wire shape.
func TestProcsMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	spec := backendSpec(t)
	ctx := context.Background()
	dirLocal, dirProcs := t.TempDir(), t.TempDir()

	runLocal := func() *Report {
		rep, err := Run(ctx, spec, WithWorkers(2), WithCache(dirLocal))
		if err != nil {
			t.Fatalf("local run: %v", err)
		}
		return rep
	}
	runProcs := func() *Report {
		bk := NewProcBackend(ProcConfig{Workers: 2})
		defer bk.Close()
		rep, err := Run(ctx, spec, WithWorkers(2), WithCache(dirProcs), WithBackend(bk))
		if err != nil {
			t.Fatalf("procs run: %v", err)
		}
		return rep
	}

	coldLocal, coldProcs := runLocal(), runProcs()
	if coldLocal.Simulated != len(spec.Cells) || coldProcs.Simulated != len(spec.Cells) {
		t.Fatalf("cold runs simulated %d/%d cells, want %d each",
			coldLocal.Simulated, coldProcs.Simulated, len(spec.Cells))
	}
	if l, p := canonicalReport(t, coldLocal), canonicalReport(t, coldProcs); string(l) != string(p) {
		t.Fatalf("cold reports differ:\nlocal: %s\nprocs: %s", l, p)
	}

	warmLocal, warmProcs := runLocal(), runProcs()
	if warmLocal.CacheHits != len(spec.Cells) || warmProcs.CacheHits != len(spec.Cells) {
		t.Fatalf("warm runs hit %d/%d cells, want %d each",
			warmLocal.CacheHits, warmProcs.CacheHits, len(spec.Cells))
	}
	if warmProcs.Simulated != 0 {
		t.Fatalf("warm procs run simulated %d cells", warmProcs.Simulated)
	}
	if l, p := canonicalReport(t, warmLocal), canonicalReport(t, warmProcs); string(l) != string(p) {
		t.Fatalf("warm reports differ:\nlocal: %s\nprocs: %s", l, p)
	}
	// Warm results equal cold results cell-for-cell (the accounting
	// legitimately differs: CacheHits vs Simulated).
	for id, cold := range coldLocal.Runs {
		cb, _ := json.Marshal(cold)
		wb, _ := json.Marshal(warmProcs.Runs[id])
		if string(cb) != string(wb) {
			t.Fatalf("cell %s: warm procs result differs from cold local", id)
		}
	}
}

// TestProcsErrorParity pins the wire-error contract: a failing cell's
// ledger entry (error string, attempt count) must be byte-identical
// whether the failure happened in-process or across the proc wire.
func TestProcsErrorParity(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	w := workload(t, "spec.stream_s00")
	w.Name = "spec.broken"
	w.Source = &trace.Source{Path: "/nonexistent/broken.trace", Format: "champsim", SHA256: "00"}
	spec := Spec{Name: "broken", Cells: []Cell{
		{ID: "ok", Config: tinyConfig(t), Workload: workload(t, "spec.pagehop_s00")},
		{ID: "broken", Config: tinyConfig(t), Workload: w},
	}}
	ctx := context.Background()

	local, err := Run(ctx, spec, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	bk := NewProcBackend(ProcConfig{Workers: 1})
	defer bk.Close()
	procs, err := Run(ctx, spec, WithWorkers(1), WithBackend(bk))
	if err != nil {
		t.Fatal(err)
	}

	if len(local.Failures) != 1 || len(procs.Failures) != 1 {
		t.Fatalf("failures: local %d, procs %d, want 1 each", len(local.Failures), len(procs.Failures))
	}
	lf, pf := local.Failures[0], procs.Failures[0]
	if lf.Err.Error() != pf.Err.Error() {
		t.Fatalf("ledger strings differ:\nlocal: %s\nprocs: %s", lf.Err, pf.Err)
	}
	if lf.Attempts != pf.Attempts {
		t.Fatalf("attempts differ: local %d, procs %d", lf.Attempts, pf.Attempts)
	}
	var lre, pre *sim.RunError
	if !asRunError(lf.Err, &lre) || !asRunError(pf.Err, &pre) {
		t.Fatalf("ledger entries are not RunErrors: %T, %T", lf.Err, pf.Err)
	}
	if lre.Stage != pre.Stage || lre.Workload != pre.Workload || lre.Panicked != pre.Panicked {
		t.Fatalf("RunError identity differs: local %+v, procs %+v", lre, pre)
	}
	if rb, lb := canonicalReport(t, local), canonicalReport(t, procs); string(rb) != string(lb) {
		t.Fatalf("degraded reports differ:\nlocal: %s\nprocs: %s", rb, lb)
	}
}

func asRunError(err error, out **sim.RunError) bool {
	re, ok := err.(*sim.RunError)
	if ok {
		*out = re
	}
	return ok
}

// TestProcsPreservesCheckErrors pins that typed oracle verdicts survive
// the wire: a check failure crossing the proc boundary still classifies
// via sim.CheckFailure, with the same violation payload.
func TestProcsPreservesCheckErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	// A handcrafted worker exchange is enough (and much faster than
	// provoking a real violation): encode → decode must round-trip the
	// typed CheckError inside a RunError shell.
	orig := &sim.RunError{Workload: "w", Stage: "check", Err: &sim.CheckError{
		Violations: []*sim.Violation{{Invariant: "mshr-leak", Component: "l1d", Cycle: 42, Detail: "leaked 3"}},
	}}
	we := encodeError(orig)
	b, err := json.Marshal(we)
	if err != nil {
		t.Fatal(err)
	}
	var back wireError
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	dec := back.decode()
	if dec.Error() != orig.Error() {
		t.Fatalf("decoded error %q, want %q", dec, orig)
	}
	ce := sim.CheckFailure(dec)
	if ce == nil {
		t.Fatal("CheckError lost its type across the wire")
	}
	if len(ce.Violations) != 1 || ce.Violations[0].Invariant != "mshr-leak" || ce.Violations[0].Cycle != 42 {
		t.Fatalf("violations corrupted: %+v", ce.Violations)
	}
	if sim.Retryable(dec) {
		t.Fatal("check failure became retryable across the wire")
	}
}

// TestEventStream pins the event contract on the local backend: a totally
// ordered stream with the right lifecycle per cell, and cache hits
// reported as such on a warm re-run.
func TestEventStream(t *testing.T) {
	spec := tinySpec(t, 2)
	dir := t.TempDir()
	var mu sync.Mutex
	var events []Event
	collect := func(ev Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}
	if _, err := Run(context.Background(), spec, WithWorkers(2), WithCache(dir), WithEvents(collect)); err != nil {
		t.Fatal(err)
	}

	byCell := map[string][]EventKind{}
	for i, ev := range events {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d; want a gapless total order", i, ev.Seq)
		}
		byCell[ev.Cell] = append(byCell[ev.Cell], ev.Kind)
	}
	for _, c := range spec.Cells {
		kinds := byCell[c.ID]
		if len(kinds) != 2 || kinds[0] != EventCellStarted || kinds[1] != EventCellCompleted {
			t.Fatalf("cell %s events = %v, want [started completed]", c.ID, kinds)
		}
	}

	events = nil
	if _, err := Run(context.Background(), spec, WithWorkers(2), WithCache(dir), WithEvents(collect)); err != nil {
		t.Fatal(err)
	}
	if len(events) != len(spec.Cells) {
		t.Fatalf("warm run emitted %d events, want %d", len(events), len(spec.Cells))
	}
	for _, ev := range events {
		if ev.Kind != EventCellCached {
			t.Fatalf("warm run emitted %s for %s, want %s", ev.Kind, ev.Cell, EventCellCached)
		}
	}

	// Progress is a count over the stream: every cell retires with exactly
	// one terminal event, and the terminal counts by kind are the report's
	// accounting. One cell each is cached, resumed, simulated and failed.
	t.Run("terminal-per-cell", func(t *testing.T) {
		spec := tinySpec(t, 4)
		cached, resumed, doomed := spec.Cells[0], spec.Cells[1], spec.Cells[3].ID
		dir, manifest := t.TempDir(), filepath.Join(t.TempDir(), "m.jsonl")
		if _, err := Run(context.Background(), Spec{Cells: []Cell{cached}}, WithCache(dir)); err != nil {
			t.Fatal(err)
		}
		if _, err := Run(context.Background(), Spec{Cells: []Cell{resumed}}, WithResume(manifest)); err != nil {
			t.Fatal(err)
		}
		var events []Event
		rep, err := Run(context.Background(), spec, WithWorkers(2), WithCache(dir), WithResume(manifest),
			WithCellFault(func(_ context.Context, id string, _ int) error {
				if id == doomed {
					return errors.New("injected, permanent")
				}
				return nil
			}),
			WithEvents(func(ev Event) { events = append(events, ev) }))
		if err != nil {
			t.Fatal(err)
		}
		terminal := map[EventKind]int{}
		perCell := map[string]int{}
		for i, ev := range events {
			if ev.Seq != uint64(i+1) {
				t.Fatalf("event %d has seq %d; want a gapless total order", i, ev.Seq)
			}
			switch ev.Kind {
			case EventCellCompleted, EventCellCached, EventCellResumed, EventCellFailed:
				terminal[ev.Kind]++
				perCell[ev.Cell]++
			}
		}
		for _, c := range spec.Cells {
			if perCell[c.ID] != 1 {
				t.Fatalf("cell %s retired with %d terminal events, want 1", c.ID, perCell[c.ID])
			}
		}
		want := map[EventKind]int{
			EventCellCompleted: rep.Simulated, EventCellCached: rep.CacheHits,
			EventCellResumed: rep.Resumed, EventCellFailed: len(rep.Failures),
		}
		for kind, n := range want {
			if terminal[kind] != n || n != 1 {
				t.Fatalf("%s events = %d, report counts %d; want 1 each (terminal %v)", kind, terminal[kind], n, terminal)
			}
		}
		if done := len(perCell); done != rep.Total {
			t.Fatalf("final done = %d, want Total %d", done, rep.Total)
		}
	})
}

// TestProcsEmitsWorkerLifecycle asserts the proc backend publishes worker
// joined/died events through the same stream as the engine's cell events.
func TestProcsEmitsWorkerLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	spec := tinySpec(t, 2)
	bk := NewProcBackend(ProcConfig{Workers: 1})
	var mu sync.Mutex
	joined := 0
	rep, err := Run(context.Background(), spec, WithWorkers(1), WithBackend(bk),
		WithEvents(func(ev Event) {
			mu.Lock()
			if ev.Kind == EventWorkerJoined {
				joined++
			}
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() {
		t.Fatalf("campaign incomplete: %+v", rep.Failures)
	}
	if joined != 1 {
		t.Fatalf("worker-joined events = %d, want 1 (one lazy spawn serving both cells)", joined)
	}
	if err := bk.Close(); err != nil {
		t.Fatal(err)
	}
	bk.mu.Lock()
	liveAfter := len(bk.live)
	bk.mu.Unlock()
	if liveAfter != 0 {
		t.Fatalf("%d workers still registered after Close", liveAfter)
	}
	if _, err := bk.ExecuteCell(context.Background(), &spec.Cells[0], nil); err == nil {
		t.Fatal("ExecuteCell after Close succeeded")
	}
	// Close is idempotent.
	if err := bk.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestProcsFaultInjectFallsBackLocal: cells carrying a live fault injector
// cannot cross the process boundary and must run in-process instead —
// same results, no worker spawned.
func TestProcsFaultInjectFallsBackLocal(t *testing.T) {
	spec := tinySpec(t, 1)
	cfg := spec.Cells[0].Config
	cfg.FaultInject = nil // explicit: base run has none either
	spec.Cells[0].Config = cfg
	if faultInjected(&spec.Cells[0]) {
		t.Fatal("base cell claims fault injection")
	}
	c := spec.Cells[0]
	c.Config.FaultInject = faultinject.New(faultinject.Config{})
	if !faultInjected(&c) {
		t.Fatal("fault-injected cell not detected")
	}
	bk := NewProcBackend(ProcConfig{Workers: 1})
	defer bk.Close()
	runs, err := bk.ExecuteCell(context.Background(), &c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("got %d runs", len(runs))
	}
	bk.mu.Lock()
	live := len(bk.live)
	bk.mu.Unlock()
	if live != 0 {
		t.Fatalf("local fallback spawned %d workers", live)
	}
}
