package experiments

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Table2Result reproduces Table II: the features the offline greedy
// selection (§III-D3) picks for each prefetcher.
type Table2Result struct {
	// Selected maps prefetcher → chosen feature names.
	Selected map[string][]string
	// Score maps prefetcher → geomean speedup of the final configuration.
	Score map[string]float64
	// Ranking maps prefetcher → all candidates sorted by isolated score.
	Ranking map[string][]string
}

// Table2 runs the feature-selection process. candidates narrows the feature
// pool (nil = the full Table I bouquet); the paper's minimum gain is 0.3%.
func Table2(o Options, wls []trace.Workload, candidates []string, prefetchers []string) (*Table2Result, error) {
	o = o.withDefaults()
	if wls == nil {
		wls = Sample(trace.Seen(), o.MaxWorkloads)
	}
	if candidates == nil {
		candidates = core.AllFeatureNames()
	}
	if prefetchers == nil {
		prefetchers = []string{"berti", "bop", "ipcp"}
	}
	res := &Table2Result{
		Selected: map[string][]string{},
		Score:    map[string]float64{},
		Ranking:  map[string][]string{},
	}
	for _, pf := range prefetchers {
		po := o
		po.Prefetcher = pf

		// The baseline Discard runs are shared across all evaluations.
		base, err := RunMatrix(po, wls, []Scenario{scenarioDiscard()})
		if err != nil {
			return nil, err
		}
		eval := func(cfg core.Config) (float64, error) {
			sc := Scenario{Name: cfg.Name, Configure: func(c *sim.Config) {
				fc := cfg
				c.FilterConfig = &fc
			}}
			m, err := RunMatrix(po, wls, []Scenario{sc})
			if err != nil {
				return 0, err
			}
			m["Discard PGC"] = base["Discard PGC"]
			return m.Geomean(cfg.Name, "Discard PGC", wls)
		}
		sel, err := core.SelectFeatures(core.DefaultDripperConfig(pf), candidates, 0.003, eval)
		if err != nil {
			return nil, err
		}
		res.Selected[pf] = sel.Selected
		res.Score[pf] = sel.Score
		res.Ranking[pf] = sel.Ranking
	}
	return res, nil
}

// Print writes the table.
func (r *Table2Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Table II: features selected per prefetcher (greedy, +0.3% gain rule)")
	pfs := make([]string, 0, len(r.Selected))
	for pf := range r.Selected {
		pfs = append(pfs, pf)
	}
	sort.Strings(pfs)
	for _, pf := range pfs {
		fmt.Fprintf(w, "  %-6s %v (geomean %s)\n", pf, r.Selected[pf], pct(r.Score[pf]))
	}
}

// Table3Result reproduces Table III: DRIPPER's storage budget.
type Table3Result struct {
	// Rows maps component → kilobytes.
	Rows    map[string]float64
	TotalKB float64
}

// Table3 computes the storage accounting from the live filter.
func Table3() (*Table3Result, error) {
	f, err := core.NewFilter(core.DefaultDripperConfig("berti"))
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultDripperConfig("berti")
	wtKB := float64(len(cfg.ProgramFeatures)*cfg.WTEntries*cfg.WeightBits) / 8 / 1024
	sysKB := float64(len(cfg.SystemFeatures)*cfg.SystemWeightBits) / 8 / 1024
	vubKB := float64(cfg.VUBEntries*(36+12)) / 8 / 1024
	pubKB := float64(cfg.PUBEntries*(36+12)) / 8 / 1024
	return &Table3Result{
		Rows: map[string]float64{
			"Program features (WT)":      wtKB,
			"System features (counters)": sysKB,
			"vUB":                        vubKB,
			"pUB":                        pubKB,
		},
		TotalKB: f.StorageKB(),
	}, nil
}

// Print writes the table.
func (r *Table3Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Table III: DRIPPER storage overhead")
	for _, row := range []string{"Program features (WT)", "System features (counters)", "vUB", "pUB"} {
		fmt.Fprintf(w, "  %-28s %8.5f KB\n", row, r.Rows[row])
	}
	fmt.Fprintf(w, "  %-28s %8.5f KB\n", "Total", r.TotalKB)
}
