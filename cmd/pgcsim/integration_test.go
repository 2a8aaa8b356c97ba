package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cpu"
)

// buildCmd compiles one of the repo's commands into dir and returns the
// binary's path.
func buildCmd(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

// snapshot runs pgcsim with args plus -metrics-out, feeding it stdin when
// non-nil, and returns the metrics snapshot it wrote.
func snapshot(t *testing.T, pgcsim string, stdin []byte, args ...string) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snap.json")
	cmd := exec.Command(pgcsim, append(args, "-metrics-out", path)...)
	if stdin != nil {
		cmd.Stdin = bytes.NewReader(stdin)
	}
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("pgcsim %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	snap, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) == 0 {
		t.Fatalf("pgcsim %s wrote an empty metrics snapshot", strings.Join(args, " "))
	}
	return snap
}

const (
	replayWorkload = "gap.graph_s00"
	replayWarmup   = 2000
	replayInstrs   = 5000
)

var replayBudget = []string{"-warmup", strconv.Itoa(replayWarmup), "-instrs", strconv.Itoa(replayInstrs)}

// TestEmitWDLPipeReproducesDirectRun is the full user-facing loop:
// `tracegen -emit-wdl` describes a registry workload as text, piping that
// text into `pgcsim -workload-file -` must produce a metrics snapshot
// byte-identical to running the same workload by name. Any drift — printer,
// parser, compiler, or CLI plumbing — fails the comparison.
func TestEmitWDLPipeReproducesDirectRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	dir := t.TempDir()
	tracegen := buildCmd(t, dir, "tracegen")
	pgcsim := buildCmd(t, dir, "pgcsim")

	emit := exec.Command(tracegen, "-workload", replayWorkload, "-emit-wdl")
	wdlText, err := emit.Output()
	if err != nil {
		t.Fatalf("tracegen -emit-wdl: %v", err)
	}
	if !strings.Contains(string(wdlText), "workload "+replayWorkload) {
		t.Fatalf("emitted WDL lacks the workload declaration:\n%s", wdlText)
	}

	a := snapshot(t, pgcsim, wdlText, append([]string{"-workload-file", "-"}, replayBudget...)...)
	b := snapshot(t, pgcsim, nil, append([]string{"-workload", replayWorkload}, replayBudget...)...)
	if !bytes.Equal(a, b) {
		t.Fatalf("metrics snapshots differ between -workload-file pipe and direct -workload run (%d vs %d bytes)", len(a), len(b))
	}
}

// TestRecordedTraceReplaysNamedRun holds tracegen's replay promise: a
// recording of warmup+instrs+ROB-size instructions, replayed through
// `pgcsim -trace`, produces a metrics snapshot byte-identical to running the
// workload by name. The ROB's worth of extra instructions is what the core
// fetches past the last retired one; a shorter recording runs dry early and
// the snapshots differ.
func TestRecordedTraceReplaysNamedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	dir := t.TempDir()
	tracegen := buildCmd(t, dir, "tracegen")
	pgcsim := buildCmd(t, dir, "pgcsim")

	n := replayWarmup + replayInstrs + cpu.DefaultConfig().ROBSize
	pgct := filepath.Join(dir, "graph.pgct")
	record := exec.Command(tracegen, "-workload", replayWorkload, "-n", strconv.Itoa(n), "-o", pgct)
	if out, err := record.CombinedOutput(); err != nil {
		t.Fatalf("tracegen: %v\n%s", err, out)
	}

	a := snapshot(t, pgcsim, nil, append([]string{"-trace", pgct}, replayBudget...)...)
	b := snapshot(t, pgcsim, nil, append([]string{"-workload", replayWorkload}, replayBudget...)...)
	if !bytes.Equal(a, b) {
		t.Fatalf("metrics snapshots differ between a %d-instruction recording and the named run (%d vs %d bytes)", n, len(a), len(b))
	}
}

// TestChampSimTraceFlag replays the committed ChampSim fixture through the
// CLI flag and checks the run is attributed to the trace, not a generator.
func TestChampSimTraceFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	dir := t.TempDir()
	pgcsim := buildCmd(t, dir, "pgcsim")
	fixture, err := filepath.Abs("../../internal/trace/testdata/champsim/valid_small.champsim")
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(pgcsim, "-champsim-trace", fixture, "-warmup", "0", "-instrs", "50")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("pgcsim -champsim-trace: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "champsim.valid_small (champsim)") {
		t.Fatalf("run not attributed to the trace:\n%s", out)
	}
}
