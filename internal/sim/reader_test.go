package sim

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/trace"
)

// champSimWorkload writes n synthetic ChampSim records, plus tail bytes of
// a torn record when tail > 0, and loads the file as a workload.
func champSimWorkload(t *testing.T, n, tail int) trace.Workload {
	t.Helper()
	path := filepath.Join(t.TempDir(), "synth.champsimtrace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteChampSim(f, synthChampSimRecords(n)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, tail)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	w, err := trace.LoadChampSim(path)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// wantTraceError checks that err is a RunError at stage "trace" wrapping
// the reader's *trace.ChampSimError.
func wantTraceError(t *testing.T, what string, err error) {
	t.Helper()
	var re *RunError
	if !errors.As(err, &re) || re.Stage != "trace" {
		t.Fatalf("%s returned %v, want a RunError at stage trace", what, err)
	}
	var cse *trace.ChampSimError
	if !errors.As(err, &cse) {
		t.Fatalf("%s error %v does not wrap a *trace.ChampSimError", what, err)
	}
}

// TestTornChampSimFailsReplayedRuns pins that a torn ChampSim trace fails
// the run under replay, the mode every mix forces: the decode error outlives
// the reader's Reset, so a replaying core cannot loop over the trace's
// intact prefix and finish as if the trace were whole.
func TestTornChampSimFailsReplayedRuns(t *testing.T) {
	torn := champSimWorkload(t, 2_000, trace.ChampSimRecordSize/2)

	cfg := testConfig(PolicyDripper)
	cfg.Core.ReplayOnEnd = true
	cfg.WarmupInstrs = 2_000
	cfg.SimInstrs = 10_000
	_, err := RunWorkload(context.Background(), cfg, torn)
	wantTraceError(t, "single-core run", err)

	mc := DefaultMultiConfig()
	mc.Cores = 2
	mc.PerCore.WarmupInstrs = 2_000
	mc.PerCore.SimInstrs = 8_000
	m, err := NewMulti(mc)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := m.RunMix(context.Background(), []trace.Workload{streamWorkload(t), torn})
	wantTraceError(t, "mix", err)
	if runs != nil {
		t.Fatal("a failed mix returned statistics")
	}
}

// TestRunsCloseTraceFiles pins that a single-core run and a mix close every
// file descriptor their ChampSim readers open, replays included.
func TestRunsCloseTraceFiles(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts descriptors through /proc/self/fd")
	}
	openFDs := func() int {
		t.Helper()
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(fds)
	}
	w := champSimWorkload(t, 5_000, 0)
	// The first file the process opens may set up descriptors the runtime
	// keeps (the network poller), so count from a second read.
	openFDs()
	before := openFDs()

	cfg := testConfig(PolicyDripper)
	cfg.WarmupInstrs = 2_000
	cfg.SimInstrs = 5_000
	if _, err := RunWorkload(context.Background(), cfg, w); err != nil {
		t.Fatal(err)
	}
	if after := openFDs(); after != before {
		t.Fatalf("RunWorkload left %d descriptors open", after-before)
	}

	mc := DefaultMultiConfig()
	mc.Cores = 2
	mc.PerCore.WarmupInstrs = 2_000
	mc.PerCore.SimInstrs = 8_000
	m, err := NewMulti(mc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunMix(context.Background(), []trace.Workload{w, w}); err != nil {
		t.Fatal(err)
	}
	if after := openFDs(); after != before {
		t.Fatalf("RunMix left %d descriptors open", after-before)
	}
}
