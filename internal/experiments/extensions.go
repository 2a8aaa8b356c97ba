package experiments

import (
	"fmt"
	"io"
	"strconv"

	"repro/internal/campaign"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Fig16Result reproduces Figure 16: the large-page study. The system maps a
// mix of 4KB and 2MB pages; Permit PGC (page-size aware, i.e. the [89]
// proposal in virtual space), DRIPPER(filter@2MB) and DRIPPER are compared
// over Discard PGC.
type Fig16Result struct {
	Geomean map[string]float64
}

// Fig16 runs the large-page study.
func Fig16(o Options, wls []trace.Workload) (*Fig16Result, error) {
	o = o.withDefaults()
	o.Prefetcher = "berti"
	if wls == nil {
		wls = Sample(trace.Seen(), o.MaxWorkloads)
	}
	largePages := func(c *sim.Config) {
		c.VMem.LargePages = true
		c.VMem.LargePageFraction = 0.5
	}
	scens := []Scenario{
		{"Discard PGC", func(c *sim.Config) { largePages(c); c.Policy = sim.PolicyDiscard }},
		{"Permit PGC", func(c *sim.Config) { largePages(c); c.Policy = sim.PolicyPermit }},
		{"DRIPPER(filter@2MB)", func(c *sim.Config) {
			largePages(c)
			c.Policy = sim.PolicyDripper
			c.FilterAt2MB = true
		}},
		{"DRIPPER", func(c *sim.Config) { largePages(c); c.Policy = sim.PolicyDripper }},
	}
	m, err := RunMatrix(o, wls, scens)
	if err != nil {
		return nil, err
	}
	res := &Fig16Result{Geomean: map[string]float64{}}
	for _, sc := range scens[1:] {
		g, err := m.Geomean(sc.Name, "Discard PGC", wls)
		if err != nil {
			return nil, err
		}
		res.Geomean[sc.Name] = g
	}
	return res, nil
}

// Print writes the figure's bars.
func (r *Fig16Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Fig. 16: 4KB+2MB pages — speedup over Discard PGC (Berti)")
	for _, sc := range []string{"Permit PGC", "DRIPPER(filter@2MB)", "DRIPPER"} {
		fmt.Fprintf(w, "  %-20s %8s\n", sc, pct(r.Geomean[sc]))
	}
}

// Fig17Result reproduces Figure 17: the impact of the baseline's L2C
// prefetcher (NoL2Pref, SPP, IPCP, BOP) on Permit PGC and DRIPPER.
type Fig17Result struct {
	L2CPrefetchers []string
	// Geomean[l2pf][scenario] is the weighted geomean speedup over the
	// Discard PGC baseline with the same L2C prefetcher.
	Geomean map[string]map[string]float64
}

// Fig17 runs the L2C prefetcher sensitivity study.
func Fig17(o Options, wls []trace.Workload) (*Fig17Result, error) {
	o = o.withDefaults()
	o.Prefetcher = "berti"
	if wls == nil {
		wls = Sample(trace.Seen(), o.MaxWorkloads)
	}
	res := &Fig17Result{
		L2CPrefetchers: []string{"none", "spp", "ipcp", "bop"},
		Geomean:        map[string]map[string]float64{},
	}
	for _, l2 := range res.L2CPrefetchers {
		withL2 := func(mut func(*sim.Config)) func(*sim.Config) {
			return func(c *sim.Config) {
				c.L2CPrefetcher = l2
				mut(c)
			}
		}
		scens := []Scenario{
			{"Discard PGC", withL2(func(c *sim.Config) { c.Policy = sim.PolicyDiscard })},
			{"Permit PGC", withL2(func(c *sim.Config) { c.Policy = sim.PolicyPermit })},
			{"DRIPPER", withL2(func(c *sim.Config) { c.Policy = sim.PolicyDripper })},
		}
		m, err := RunMatrix(o, wls, scens)
		if err != nil {
			return nil, err
		}
		res.Geomean[l2] = map[string]float64{}
		for _, sc := range scens[1:] {
			g, err := m.Geomean(sc.Name, "Discard PGC", wls)
			if err != nil {
				return nil, err
			}
			res.Geomean[l2][sc.Name] = g
		}
	}
	return res, nil
}

// Print writes the figure's bars.
func (r *Fig17Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Fig. 17: speedup over Discard PGC with different L2C prefetchers (Berti)")
	fmt.Fprintf(w, "  %-8s %12s %12s\n", "L2C pf", "Permit PGC", "DRIPPER")
	for _, l2 := range r.L2CPrefetchers {
		fmt.Fprintf(w, "  %-8s %12s %12s\n", l2,
			pct(r.Geomean[l2]["Permit PGC"]), pct(r.Geomean[l2]["DRIPPER"]))
	}
}

// Fig18 runs the unseen-workload study (Figure 18): the Fig. 10 s-curve on
// the 178 workloads DRIPPER was not designed against.
func Fig18(o Options, wls []trace.Workload) (*Fig10Result, error) {
	o.Prefetcher = "berti"
	if wls == nil {
		wls = Sample(trace.Unseen(), o.MaxWorkloads)
	}
	m, wls, err := runPolicies(o, wls)
	if err != nil {
		return nil, err
	}
	return newSCurveResult(m, wls)
}

// Table5Result reproduces Table V: geomean speedups of Berti+Permit PGC and
// Berti+DRIPPER over Berti+Discard PGC on the seen, unseen and full
// (including non-intensive) workload sets.
type Table5Result struct {
	// Geomean[set][scenario], sets "seen", "unseen", "all".
	Geomean map[string]map[string]float64
}

// Table5 runs the three-set summary.
func Table5(o Options) (*Table5Result, error) {
	o.Prefetcher = "berti"
	sets := map[string][]trace.Workload{
		"seen":   Sample(trace.Seen(), o.MaxWorkloads),
		"unseen": Sample(trace.Unseen(), o.MaxWorkloads),
	}
	all := append(append([]trace.Workload{}, sets["seen"]...), sets["unseen"]...)
	all = append(all, Sample(trace.NonIntensive(), o.MaxWorkloads)...)
	sets["all"] = all

	res := &Table5Result{Geomean: map[string]map[string]float64{}}
	// Run each distinct workload once per scenario, then reduce per set.
	m, _, err := runPolicies(o, dedupe(all))
	if err != nil {
		return nil, err
	}
	for set, wl := range sets {
		res.Geomean[set] = map[string]float64{}
		for _, sc := range []string{"Permit PGC", "DRIPPER"} {
			g, err := m.Geomean(sc, "Discard PGC", wl)
			if err != nil {
				return nil, err
			}
			res.Geomean[set][sc] = g
		}
	}
	return res, nil
}

func dedupe(wls []trace.Workload) []trace.Workload {
	seen := map[string]bool{}
	var out []trace.Workload
	for _, w := range wls {
		if !seen[w.Name] {
			seen[w.Name] = true
			out = append(out, w)
		}
	}
	return out
}

// Print writes the table.
func (r *Table5Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Table V: geomean speedups over Berti+Discard PGC")
	fmt.Fprintf(w, "  %-18s %8s %8s %8s\n", "", "seen", "unseen", "all")
	for _, sc := range []string{"Permit PGC", "DRIPPER"} {
		fmt.Fprintf(w, "  Berti+%-12s %8s %8s %8s\n", sc,
			pct(r.Geomean["seen"][sc]), pct(r.Geomean["unseen"][sc]), pct(r.Geomean["all"][sc]))
	}
}

// Fig19Result reproduces Figure 19: the distribution of 8-core weighted
// speedups of Permit PGC and DRIPPER over Discard PGC across random mixes.
type Fig19Result struct {
	// WeightedSpeedups maps scenario → ascending per-mix weighted speedup.
	WeightedSpeedups map[string][]float64
	// Geomean[scenario] across mixes.
	Geomean map[string]float64
	Cores   int
	Mixes   int
}

// Fig19 runs the multi-core study. cores and mixes scale the paper's 8
// cores × 300 mixes down for cheap runs.
func Fig19(o Options, cores, mixes int) (*Fig19Result, error) {
	o = o.withDefaults()
	o.Prefetcher = "berti"
	if cores <= 0 {
		cores = 8
	}
	if mixes <= 0 {
		mixes = 300
	}
	mixList := trace.Mixes(mixes, cores)
	scens := []Scenario{scenarioDiscard(), scenarioPermit(), scenarioDripper()}

	// Isolation IPCs (per workload, per scenario) for the weighted-speedup
	// metric: IPC of the workload alone on the multi-core configuration.
	// The list is in order of first appearance across the mixes, so the
	// isolation campaign's spec is the same on every run.
	seen := map[string]bool{}
	var distinct []trace.Workload
	for _, mix := range mixList {
		for _, w := range mix {
			if !seen[w.Name] {
				seen[w.Name] = true
				distinct = append(distinct, w)
			}
		}
	}
	iso, err := RunMatrix(o, distinct, scens)
	if err != nil {
		return nil, err
	}

	res := &Fig19Result{
		WeightedSpeedups: map[string][]float64{},
		Geomean:          map[string]float64{},
		Cores:            cores,
		Mixes:            mixes,
	}

	// Per-mix multi-core runs, as one campaign of mix cells: every
	// (scenario, mix) pair is a cell, cached and parallelised like the
	// single-core matrices. The cells are independent: weighted speedups
	// are read only once the whole campaign has returned.
	mixID := func(scen string, i int) string { return cellID(scen, "mix"+strconv.Itoa(i)) }
	var cells []campaign.Cell
	for i, mix := range mixList {
		for _, sc := range scens {
			mc := sim.DefaultMultiConfig()
			mc.Cores = cores
			mc.PerCore = baseConfig(o)
			mc.PerCore.Core.ReplayOnEnd = true
			sc.Configure(&mc.PerCore)
			cells = append(cells, campaign.Cell{ID: mixID(sc.Name, i), Multi: &mc, Mix: mix})
		}
	}
	crep, err := campaign.Run(o.ctx(), campaign.Spec{Name: "fig19", Cells: cells}, o.Campaign...)
	if err != nil {
		return nil, err
	}
	// Fig 19 needs every mix: any failed cell aborts the figure (the
	// distribution is meaningless with holes), matching the pre-campaign
	// behaviour where the first mix error returned.
	if ferr := crep.Err(); ferr != nil {
		return nil, ferr
	}
	mixIPCs := func(scen string, i int) []float64 {
		runs := crep.MixRuns[mixID(scen, i)]
		ipcs := make([]float64, len(runs))
		for k, r := range runs {
			ipcs[k] = r.IPC()
		}
		return ipcs
	}

	for mi, mix := range mixList {
		baseIPC := mixIPCs(scens[0].Name, mi)
		baseIso := make([]float64, len(mix))
		for i, w := range mix {
			baseIso[i] = iso["Discard PGC"][w.Name].IPC()
		}
		for _, sc := range scens[1:] {
			multIPC := mixIPCs(sc.Name, mi)
			scIso := make([]float64, len(mix))
			for i, w := range mix {
				scIso[i] = iso[sc.Name][w.Name].IPC()
			}
			ws, err := stats.WeightedSpeedup(multIPC, scIso, baseIPC, baseIso)
			if err != nil {
				return nil, err
			}
			res.WeightedSpeedups[sc.Name] = append(res.WeightedSpeedups[sc.Name], ws)
		}
	}
	for sc, xs := range res.WeightedSpeedups {
		res.WeightedSpeedups[sc] = sortedCopy(xs)
		g, err := stats.Geomean(xs)
		if err != nil {
			return nil, err
		}
		res.Geomean[sc] = g
	}
	return res, nil
}

// Print writes the distribution summary.
func (r *Fig19Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Fig. 19: %d-core weighted speedup over Discard PGC across %d mixes\n", r.Cores, r.Mixes)
	for _, sc := range []string{"Permit PGC", "DRIPPER"} {
		xs := r.WeightedSpeedups[sc]
		if len(xs) == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-11s geomean %8s | p10 %8s median %8s p90 %8s\n",
			sc, pct(r.Geomean[sc]), pct(stats.Percentile(xs, 10)),
			pct(stats.Percentile(xs, 50)), pct(stats.Percentile(xs, 90)))
	}
}
