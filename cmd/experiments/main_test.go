package main

import (
	"bytes"
	"io"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/trace"
)

func TestTable3ThroughTable(t *testing.T) {
	x, err := lookup("table3")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := x.report(env{}, &out, false); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table III: DRIPPER storage overhead", "vUB", "Total"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("table3 report lacks %q:\n%s", want, out.String())
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	for _, name := range []string{"fig99", "all", ""} {
		if _, err := lookup(name); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("lookup(%q) = %v", name, err)
		}
	}
}

func TestNoCustomRejectsWorkloads(t *testing.T) {
	w, ok := trace.ByName("spec.stream_s00")
	if !ok {
		t.Fatal("spec.stream_s00 missing")
	}
	e := env{custom: []trace.Workload{w}}
	for _, name := range []string{"table3", "table5", "fig19"} {
		x, err := lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		err = x.report(e, &out, false)
		if err == nil || !strings.Contains(err.Error(), "does not take custom workloads") {
			t.Errorf("%s with a custom workload: %v", name, err)
		}
		if out.Len() != 0 {
			t.Errorf("%s wrote %q before rejecting", name, out.String())
		}
	}
}

// TestFig18TitleInReport: the unseen-set header goes to the report's
// writer (the -out-dir file), ahead of the s-curve block.
func TestFig18TitleInReport(t *testing.T) {
	x, err := lookup("fig18")
	if err != nil {
		t.Fatal(err)
	}
	w, ok := trace.ByName("spec.stream_s00")
	if !ok {
		t.Fatal("spec.stream_s00 missing")
	}
	e := env{
		o:      experiments.Options{Warmup: 2_000, Instrs: 5_000, MaxWorkloads: 1},
		custom: []trace.Workload{w},
	}
	var out bytes.Buffer
	if err := x.report(e, &out, false); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "Fig. 18 (unseen workloads):\nFig. 10:") {
		t.Errorf("fig18 report:\n%s", out.String())
	}
}

func TestAllAndHelpCoverTable(t *testing.T) {
	want := []string{"fig2", "fig3", "fig4", "fig9", "fig10", "fig11", "fig12",
		"fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "table3", "table5", "fig19"}
	if got := expNames(true); !slices.Equal(got, want) {
		t.Errorf("-exp all = %v, want %v", got, want)
	}
	seen := map[string]bool{}
	for _, x := range table {
		if seen[x.name] {
			t.Errorf("duplicate entry %s", x.name)
		}
		seen[x.name] = true
		if !strings.Contains(expUsage, x.name) {
			t.Errorf("-exp help lacks %s", x.name)
		}
	}
	for _, name := range want {
		if !seen[name] {
			t.Errorf("-exp all names %s, which the table lacks", name)
		}
	}
}

// TestCampaignLineCountsCells runs a one-workload fig9 on a fresh cache,
// then again warm: the final "campaign:" line, counted from cell events,
// reports every cell simulated on the cold run and every one cached on the
// warm run.
func TestCampaignLineCountsCells(t *testing.T) {
	x, err := lookup("fig9")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	line := regexp.MustCompile(`^simulated=(\d+) cached=(\d+) failed=(\d+)$`)
	run := func() (simulated, cached, failed int) {
		var cells tally
		e := env{o: experiments.Options{
			Warmup: 2_000, Instrs: 5_000, MaxWorkloads: 1,
			Campaign: []campaign.Option{
				campaign.WithWorkers(2), campaign.WithCache(dir), campaign.WithEvents(cells.observe),
			},
		}}
		if err := x.report(e, io.Discard, false); err != nil {
			t.Fatal(err)
		}
		m := line.FindStringSubmatch(cells.String())
		if m == nil {
			t.Fatalf("campaign line %q", cells.String())
		}
		n := func(s string) int { v, _ := strconv.Atoi(s); return v }
		return n(m[1]), n(m[2]), n(m[3])
	}
	cold, cached, failed := run()
	if cold == 0 || cached != 0 || failed != 0 {
		t.Fatalf("cold run: simulated=%d cached=%d failed=%d", cold, cached, failed)
	}
	if s, c, f := run(); s != 0 || c != cold || f != 0 {
		t.Fatalf("warm run: simulated=%d cached=%d failed=%d, want simulated=0 cached=%d failed=0", s, c, f, cold)
	}
}
