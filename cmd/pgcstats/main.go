// Command pgcstats batch-runs a workload set under one configuration and
// emits per-workload statistics as CSV, for spreadsheet or plotting
// pipelines. The batch is one campaign (a cell per workload) run through
// the campaign engine.
//
// Examples:
//
//	pgcstats -set seen -policy dripper -max 40 > dripper.csv
//	pgcstats -set unseen -policy permit -instrs 200000 > permit_unseen.csv
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	var (
		set        = flag.String("set", "seen", "workload set: seen|unseen|nonintensive|all")
		policy     = flag.String("policy", "dripper", "page-cross policy: "+strings.Join(sim.PolicyNames(), "|"))
		prefetcher = flag.String("prefetcher", "berti", "L1D prefetcher: "+strings.Join(sim.PrefetcherNames("l1d"), "|")+"|none")
		warmup     = flag.Uint64("warmup", 100_000, "warmup instructions")
		instrs     = flag.Uint64("instrs", 100_000, "measured instructions")
		maxN       = flag.Int("max", 0, "cap on workloads, evenly spaced across the set (0 = all)")
		parallel   = flag.Int("parallel", 0, "concurrent runs (0 = NumCPU)")
	)
	flag.Parse()

	wls, err := workloads(*set, *maxN)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pgcstats: %v\n", err)
		os.Exit(1)
	}

	cfg := sim.DefaultConfig()
	cfg.Policy = sim.PolicyKind(*policy)
	cfg.L1DPrefetcher = *prefetcher
	cfg.WarmupInstrs = *warmup
	cfg.SimInstrs = *instrs
	if err := writeCSV(os.Stdout, cfg, wls, *parallel); err != nil {
		fmt.Fprintf(os.Stderr, "pgcstats: %v\n", err)
		os.Exit(1)
	}
}

// workloads returns the named workload set, capped at n workloads (0 =
// all) spaced evenly across it so the cap keeps the suites the set spans.
func workloads(set string, n int) ([]trace.Workload, error) {
	sets := map[string]func() []trace.Workload{
		"seen": trace.Seen, "unseen": trace.Unseen, "nonintensive": trace.NonIntensive, "all": trace.All,
	}
	load, ok := sets[set]
	if !ok {
		return nil, fmt.Errorf("unknown set %q", set)
	}
	return experiments.Sample(load(), n), nil
}

// writeCSV runs every workload under cfg on par campaign workers (0 =
// NumCPU) and writes one CSV row per workload, in wls order, to w. Nothing
// is written unless every cell completes.
func writeCSV(w io.Writer, cfg sim.Config, wls []trace.Workload, par int) error {
	spec := campaign.Spec{Name: "pgcstats"}
	for _, wl := range wls {
		spec.Cells = append(spec.Cells, campaign.Cell{ID: wl.Name, Config: cfg, Workload: wl})
	}
	rep, err := campaign.Run(context.Background(), spec, campaign.WithWorkers(par))
	if err != nil {
		return err
	}
	if err := rep.Err(); err != nil {
		return err
	}

	cw := csv.NewWriter(w)
	header := []string{"workload", "suite", "weight", "ipc",
		"l1d_mpki", "l2c_mpki", "llc_mpki", "dtlb_mpki", "stlb_mpki", "l1i_mpki",
		"pf_fills", "pf_accuracy", "pgc_issued", "pgc_dropped", "pgc_useful",
		"pgc_useless", "walks", "spec_walks", "branch_mpki"}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, wl := range wls {
		if err := cw.Write(row(wl, rep.Runs[wl.Name])); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// row renders one workload's statistics as a CSV record.
func row(w trace.Workload, r *stats.Run) []string {
	f := func(x float64) string { return strconv.FormatFloat(x, 'f', 4, 64) }
	u := func(x uint64) string { return strconv.FormatUint(x, 10) }
	return []string{
		w.Name, w.Suite, f(w.Weight), f(r.IPC()),
		f(r.MPKI("l1d")), f(r.MPKI("l2c")), f(r.MPKI("llc")),
		f(r.MPKI("dtlb")), f(r.MPKI("stlb")), f(r.MPKI("l1i")),
		u(r.L1D.PrefetchFills), f(r.L1D.PrefetchAccuracy()),
		u(r.L1D.PGCIssued), u(r.L1D.PGCDropped),
		u(r.L1D.PGCUseful), u(r.L1D.PGCUseless),
		u(r.PTW.Walks), u(r.PTW.SpeculativeWalks),
		f(branchMPKI(r)),
	}
}

// branchMPKI is branch mispredictions per kilo-instruction (0 for a run
// that retired nothing).
func branchMPKI(r *stats.Run) float64 {
	if r.Core.Instructions == 0 {
		return 0
	}
	return float64(r.Core.Mispredicts) * 1000 / float64(r.Core.Instructions)
}
