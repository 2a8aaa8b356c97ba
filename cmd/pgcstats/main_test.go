package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// TestWriteCSVMatchesDirectRuns runs the CSV path on two seen workloads at
// a small budget: the header comes first, then one row per workload in set
// order, each equal to the row built from a direct sim.RunWorkload under
// the same config.
func TestWriteCSVMatchesDirectRuns(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.WarmupInstrs, cfg.SimInstrs = 2_000, 5_000
	wls := trace.Seen()[:2]

	var out bytes.Buffer
	if err := writeCSV(&out, cfg, wls, 2); err != nil {
		t.Fatalf("writeCSV: %v", err)
	}
	recs, err := csv.NewReader(&out).ReadAll()
	if err != nil {
		t.Fatalf("parsing CSV: %v", err)
	}
	if len(recs) != 1+len(wls) {
		t.Fatalf("got %d CSV records, want header + %d rows", len(recs), len(wls))
	}
	if recs[0][0] != "workload" || len(recs[0]) != len(recs[1]) {
		t.Fatalf("header = %v", recs[0])
	}
	for i, w := range wls {
		run, err := sim.RunWorkload(context.Background(), cfg, w)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if want := row(w, run); !reflect.DeepEqual(recs[1+i], want) {
			t.Fatalf("row %d:\n got  %v\n want %v", i, recs[1+i], want)
		}
	}
}

// TestWriteCSVReportsFailedCell checks that a failing cell surfaces from
// the campaign's failure ledger and suppresses the CSV.
func TestWriteCSVReportsFailedCell(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.WarmupInstrs, cfg.SimInstrs = 2_000, 5_000
	cfg.Policy = "no-such-policy"
	var out bytes.Buffer
	if err := writeCSV(&out, cfg, trace.Seen()[:1], 1); err == nil {
		t.Fatal("writeCSV accepted an unknown policy")
	}
	if out.Len() != 0 {
		t.Fatalf("failed batch wrote %q", out.String())
	}
}

// TestRowBranchMPKI pins the last column to mispredictions per thousand
// retired instructions, exactly, and to 0 for a run that retired nothing.
func TestRowBranchMPKI(t *testing.T) {
	w := trace.Seen()[0]
	r := &stats.Run{}
	r.Core.Instructions, r.Core.Mispredicts = 1000, 5
	if got := row(w, r); got[len(got)-1] != "5.0000" {
		t.Fatalf("branch_mpki = %s, want 5.0000", got[len(got)-1])
	}
	if got := row(w, &stats.Run{}); got[len(got)-1] != "0.0000" {
		t.Fatalf("branch_mpki with no instructions = %s, want 0.0000", got[len(got)-1])
	}
}

// TestMaxSpansSuites: -max caps a set with evenly spaced workloads, so a
// small cap on the seen set (whose first 60 workloads are all spec) still
// spans several suites.
func TestMaxSpansSuites(t *testing.T) {
	wls, err := workloads("seen", 7)
	if err != nil {
		t.Fatal(err)
	}
	suites := map[string]bool{}
	for _, w := range wls {
		suites[w.Suite] = true
	}
	if len(wls) != 7 || len(suites) < 2 {
		t.Fatalf("-max 7 picked %d workloads from suites %v", len(wls), suites)
	}
	if _, err := workloads("nope", 0); err == nil {
		t.Fatal("unknown set accepted")
	}
}
