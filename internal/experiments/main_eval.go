package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Fig9Result reproduces Figure 9: geomean IPC speedup over Discard PGC of
// every page-cross scheme, for each of the three prefetchers.
type Fig9Result struct {
	Scenarios []string
	// Geomeans[prefetcher][scenario] is the weighted geomean speedup over
	// Discard PGC.
	Geomeans map[string]map[string]float64
}

// Fig9 runs the headline scheme comparison.
func Fig9(o Options, wls []trace.Workload) (*Fig9Result, error) {
	o = o.withDefaults()
	if wls == nil {
		wls = Sample(trace.Seen(), o.MaxWorkloads)
	}
	scens := []Scenario{
		scenarioDiscard(), scenarioPermit(), scenarioDiscardPTW(),
		scenarioISO(), scenarioPPF(), scenarioPPFDthr(), scenarioDripper(),
	}
	res := &Fig9Result{Geomeans: map[string]map[string]float64{}}
	for _, sc := range scens[1:] {
		res.Scenarios = append(res.Scenarios, sc.Name)
	}
	for _, pf := range []string{"berti", "bop", "ipcp"} {
		po := o
		po.Prefetcher = pf
		m, err := RunMatrix(po, wls, scens)
		if err != nil {
			return nil, err
		}
		res.Geomeans[pf] = map[string]float64{}
		for _, sc := range scens[1:] {
			g, err := m.Geomean(sc.Name, "Discard PGC", wls)
			if err != nil {
				return nil, err
			}
			res.Geomeans[pf][sc.Name] = g
		}
	}
	return res, nil
}

// Print writes the figure's bars.
func (r *Fig9Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Fig. 9: geomean IPC speedup over Discard PGC")
	fmt.Fprintf(w, "%-14s", "scenario")
	for _, pf := range []string{"berti", "bop", "ipcp"} {
		fmt.Fprintf(w, " %10s", pf)
	}
	fmt.Fprintln(w)
	for _, sc := range r.Scenarios {
		fmt.Fprintf(w, "%-14s", sc)
		for _, pf := range []string{"berti", "bop", "ipcp"} {
			fmt.Fprintf(w, " %10s", pct(r.Geomeans[pf][sc]))
		}
		fmt.Fprintln(w)
	}
}

// Fig10Result reproduces Figure 10: the per-workload s-curve (top) and the
// per-suite geomean breakdown (bottom) of Permit PGC and DRIPPER over
// Discard PGC with Berti.
type Fig10Result struct {
	// SCurve maps scenario → ascending per-workload speedups.
	SCurve map[string][]float64
	// BySuite maps scenario → suite → weighted geomean speedup.
	BySuite map[string]map[string]float64
	// Overall maps scenario → weighted geomean over all workloads.
	Overall map[string]float64
	// CI maps scenario → bootstrap 95% confidence interval of the
	// (unweighted) geomean, qualifying results from sampled subsets.
	CI     map[string][2]float64
	Suites []string
}

// Fig10 runs the Berti case study.
func Fig10(o Options, wls []trace.Workload) (*Fig10Result, error) {
	o.Prefetcher = "berti"
	m, wls, err := runPolicies(o, wls)
	if err != nil {
		return nil, err
	}
	return newSCurveResult(m, wls)
}

// scurveScenarios are the Fig. 10/18 scenarios, in report order.
var scurveScenarios = []string{"Permit PGC", "DRIPPER"}

func newSCurveResult(m Matrix, wls []trace.Workload) (*Fig10Result, error) {
	res := &Fig10Result{
		SCurve:  map[string][]float64{},
		BySuite: map[string]map[string]float64{},
		Overall: map[string]float64{},
		CI:      map[string][2]float64{},
	}
	suites, groups := bySuite(wls)
	res.Suites = suites
	for _, sc := range scurveScenarios {
		sp, wts, err := m.Speedups(sc, "Discard PGC", wls)
		if err != nil {
			return nil, err
		}
		res.SCurve[sc] = sortedCopy(sp)
		g, err := stats.WeightedGeomean(sp, wts)
		if err != nil {
			return nil, err
		}
		res.Overall[sc] = g
		if lo, hi, err := stats.BootstrapGeomeanCI(sp, 400, 0.95, 0xD1CE); err == nil {
			res.CI[sc] = [2]float64{lo, hi}
		}
		res.BySuite[sc] = map[string]float64{}
		for _, suite := range suites {
			g, err := m.Geomean(sc, "Discard PGC", groups[suite])
			if err != nil {
				return nil, err
			}
			res.BySuite[sc][suite] = g
		}
	}
	return res, nil
}

// Print writes the s-curve summary and suite breakdown.
func (r *Fig10Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Fig. 10: Berti — speedup over Discard PGC")
	for _, sc := range scurveScenarios {
		curve := r.SCurve[sc]
		if len(curve) == 0 {
			continue
		}
		ci := r.CI[sc]
		fmt.Fprintf(w, "  %-11s geomean %8s (95%% CI %s..%s) | p10 %8s median %8s p90 %8s\n",
			sc, pct(r.Overall[sc]), pct(ci[0]), pct(ci[1]),
			pct(stats.Percentile(curve, 10)), pct(stats.Percentile(curve, 50)),
			pct(stats.Percentile(curve, 90)))
	}
	fmt.Fprintln(w, "  per-suite geomeans:")
	for _, suite := range r.Suites {
		fmt.Fprintf(w, "    %-9s", suite)
		for _, sc := range scurveScenarios {
			if g, ok := r.BySuite[sc][suite]; ok {
				fmt.Fprintf(w, "  %s %8s", sc, pct(g))
			}
		}
		fmt.Fprintln(w)
	}
}

// Fig11Result reproduces Figure 11: miss coverage (top) and prefetch
// accuracy (bottom) of Permit PGC and DRIPPER relative to Discard PGC,
// averaged per suite.
type Fig11Result struct {
	Suites []string
	// CoverageDelta[scenario][suite] is mean(coverage_scenario −
	// coverage_discard), where coverage is the fraction of the Discard
	// baseline's L1D misses removed.
	CoverageDelta map[string]map[string]float64
	// AccuracyDelta[scenario][suite] is mean prefetch-accuracy delta in
	// percentage points over Discard PGC (all prefetches, in-page +
	// page-cross, as in the paper).
	AccuracyDelta map[string]map[string]float64
	// Overall aggregates across workloads.
	OverallCoverage, OverallAccuracy map[string]float64
}

// Fig11 runs the coverage/accuracy study.
func Fig11(o Options, wls []trace.Workload) (*Fig11Result, error) {
	o.Prefetcher = "berti"
	m, wls, err := runPolicies(o, wls)
	if err != nil {
		return nil, err
	}
	return newFig11Result(m, wls), nil
}

// newFig11Result reduces a {Discard, Permit, DRIPPER} matrix to Fig. 11.
func newFig11Result(m Matrix, wls []trace.Workload) *Fig11Result {
	suites, groups := bySuite(wls)
	res := &Fig11Result{
		Suites:          suites,
		CoverageDelta:   map[string]map[string]float64{},
		AccuracyDelta:   map[string]map[string]float64{},
		OverallCoverage: map[string]float64{},
		OverallAccuracy: map[string]float64{},
	}
	for _, sc := range []string{"Permit PGC", "DRIPPER"} {
		res.CoverageDelta[sc] = map[string]float64{}
		res.AccuracyDelta[sc] = map[string]float64{}
		var covSum, accSum float64
		var n int
		for _, suite := range suites {
			var cs, as float64
			for _, wl := range groups[suite] {
				run, base := m[sc][wl.Name], m["Discard PGC"][wl.Name]
				cs += stats.Coverage(run, base)
				as += run.L1D.PrefetchAccuracy() - base.L1D.PrefetchAccuracy()
			}
			k := float64(len(groups[suite]))
			res.CoverageDelta[sc][suite] = cs / k
			res.AccuracyDelta[sc][suite] = as / k
			covSum += cs
			accSum += as
			n += len(groups[suite])
		}
		res.OverallCoverage[sc] = covSum / float64(n)
		res.OverallAccuracy[sc] = accSum / float64(n)
	}
	return res
}

// Print writes both panels.
func (r *Fig11Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Fig. 11: coverage (top) and accuracy (bottom) over Discard PGC (Berti)")
	for _, sc := range []string{"Permit PGC", "DRIPPER"} {
		fmt.Fprintf(w, "  %-11s coverage %+6.2f%%  accuracy %+6.2f%%\n",
			sc, r.OverallCoverage[sc]*100, r.OverallAccuracy[sc]*100)
		for _, suite := range r.Suites {
			fmt.Fprintf(w, "    %-9s coverage %+6.2f%%  accuracy %+6.2f%%\n",
				suite, r.CoverageDelta[sc][suite]*100, r.AccuracyDelta[sc][suite]*100)
		}
	}
}

// Fig12Result reproduces Figure 12: s-curves of dTLB/sTLB/L1D/LLC MPKI
// deltas of Permit PGC and DRIPPER over Discard PGC.
type Fig12Result struct {
	// Curves[scenario][structure] is the ascending per-workload MPKI delta
	// (scenario − Discard; negative is better).
	Curves map[string]map[string][]float64
	// MeanDelta[scenario][structure] is the mean delta, the paper's
	// headline "DRIPPER reduces dTLB/sTLB/L1D/LLC MPKIs by ...".
	MeanDelta map[string]map[string]float64
}

// Fig12 runs the MPKI study.
func Fig12(o Options, wls []trace.Workload) (*Fig12Result, error) {
	o.Prefetcher = "berti"
	m, wls, err := runPolicies(o, wls)
	if err != nil {
		return nil, err
	}
	return newFig12Result(m, wls), nil
}

// newFig12Result reduces a {Discard, Permit, DRIPPER} matrix to Fig. 12.
func newFig12Result(m Matrix, wls []trace.Workload) *Fig12Result {
	res := &Fig12Result{
		Curves:    map[string]map[string][]float64{},
		MeanDelta: map[string]map[string]float64{},
	}
	for _, sc := range []string{"Permit PGC", "DRIPPER"} {
		res.Curves[sc] = map[string][]float64{}
		res.MeanDelta[sc] = map[string]float64{}
		for _, st := range Fig4Structures {
			var deltas []float64
			for _, wl := range wls {
				deltas = append(deltas, m[sc][wl.Name].MPKI(st)-m["Discard PGC"][wl.Name].MPKI(st))
			}
			res.Curves[sc][st] = sortedCopy(deltas)
			res.MeanDelta[sc][st] = mean(deltas)
		}
	}
	return res
}

// Print writes the mean deltas.
func (r *Fig12Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Fig. 12: MPKI delta over Discard PGC (Berti); negative is better")
	for _, sc := range []string{"Permit PGC", "DRIPPER"} {
		fmt.Fprintf(w, "  %-11s", sc)
		for _, st := range Fig4Structures {
			fmt.Fprintf(w, "  %s %+7.3f", st, r.MeanDelta[sc][st])
		}
		fmt.Fprintln(w)
	}
}

// Fig13Result reproduces Figure 13: the distribution of useful and useless
// page-cross prefetches per kilo instruction for Permit PGC and DRIPPER.
type Fig13Result struct {
	// UsefulPKI/UselessPKI map scenario → ascending per-workload values.
	UsefulPKI, UselessPKI map[string][]float64
	// Medians for the headline comparison.
	MedianUseful, MedianUseless map[string]float64
}

// Fig13 runs the PKI distribution study.
func Fig13(o Options, wls []trace.Workload) (*Fig13Result, error) {
	o.Prefetcher = "berti"
	if wls == nil {
		wls = Sample(trace.Seen(), o.MaxWorkloads)
	}
	m, err := RunMatrix(o, wls, []Scenario{scenarioPermit(), scenarioDripper()})
	if err != nil {
		return nil, err
	}
	return newFig13Result(m, wls), nil
}

// newFig13Result reduces a matrix holding Permit PGC and DRIPPER to Fig. 13.
func newFig13Result(m Matrix, wls []trace.Workload) *Fig13Result {
	res := &Fig13Result{
		UsefulPKI: map[string][]float64{}, UselessPKI: map[string][]float64{},
		MedianUseful: map[string]float64{}, MedianUseless: map[string]float64{},
	}
	for _, sc := range []string{"Permit PGC", "DRIPPER"} {
		for _, wl := range wls {
			useful, useless := m[sc][wl.Name].PGCPerKiloInstr()
			res.UsefulPKI[sc] = append(res.UsefulPKI[sc], useful)
			res.UselessPKI[sc] = append(res.UselessPKI[sc], useless)
		}
		res.UsefulPKI[sc] = sortedCopy(res.UsefulPKI[sc])
		res.UselessPKI[sc] = sortedCopy(res.UselessPKI[sc])
		res.MedianUseful[sc] = stats.Percentile(res.UsefulPKI[sc], 50)
		res.MedianUseless[sc] = stats.Percentile(res.UselessPKI[sc], 50)
	}
	return res
}

// Print writes the distribution summary.
func (r *Fig13Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Fig. 13: page-cross prefetches per kilo-instruction")
	for _, sc := range []string{"Permit PGC", "DRIPPER"} {
		fmt.Fprintf(w, "  %-11s useful median %6.2f (p90 %6.2f) | useless median %6.2f (p90 %6.2f)\n",
			sc, r.MedianUseful[sc], stats.Percentile(r.UsefulPKI[sc], 90),
			r.MedianUseless[sc], stats.Percentile(r.UselessPKI[sc], 90))
	}
}

// Fig14Result reproduces Figure 14: DRIPPER against three single-feature
// page-cross filters built from its constituent features.
type Fig14Result struct {
	Scenarios []string
	// Geomean[scenario] is the weighted geomean speedup over Discard PGC.
	Geomean map[string]float64
}

// Fig14 runs the constituent-feature comparison for Berti's DRIPPER.
func Fig14(o Options, wls []trace.Workload) (*Fig14Result, error) {
	o = o.withDefaults()
	o.Prefetcher = "berti"
	if wls == nil {
		wls = Sample(trace.Seen(), o.MaxWorkloads)
	}
	scens := []Scenario{scenarioDiscard(), scenarioDripper()}
	for _, feat := range []string{"Delta", "sTLB MPKI", "sTLB MissRate"} {
		fc := core.SingleFeatureConfig(feat)
		scens = append(scens, Scenario{
			Name: "only " + feat,
			Configure: func(c *sim.Config) {
				cfg := fc
				c.FilterConfig = &cfg
			},
		})
	}
	m, err := RunMatrix(o, wls, scens)
	if err != nil {
		return nil, err
	}
	res := &Fig14Result{Geomean: map[string]float64{}}
	for _, sc := range scens[1:] {
		res.Scenarios = append(res.Scenarios, sc.Name)
		g, err := m.Geomean(sc.Name, "Discard PGC", wls)
		if err != nil {
			return nil, err
		}
		res.Geomean[sc.Name] = g
	}
	return res, nil
}

// Print writes the comparison.
func (r *Fig14Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Fig. 14: DRIPPER vs its constituent single-feature filters (Berti)")
	for _, sc := range r.Scenarios {
		fmt.Fprintf(w, "  %-20s %8s\n", sc, pct(r.Geomean[sc]))
	}
}

// Fig15Result reproduces Figure 15: DRIPPER vs DRIPPER-SF (system features
// only).
type Fig15Result struct {
	GeomeanDripper, GeomeanSF float64
	// SCurveGap is the ascending per-workload speedup of DRIPPER relative
	// to DRIPPER-SF.
	SCurveGap []float64
}

// Fig15 runs the system-features-only comparison.
func Fig15(o Options, wls []trace.Workload) (*Fig15Result, error) {
	o = o.withDefaults()
	o.Prefetcher = "berti"
	if wls == nil {
		wls = Sample(trace.Seen(), o.MaxWorkloads)
	}
	sf := Scenario{"DRIPPER-SF", func(c *sim.Config) { c.Policy = sim.PolicyDripperSF }}
	m, err := RunMatrix(o, wls, []Scenario{scenarioDiscard(), scenarioDripper(), sf})
	if err != nil {
		return nil, err
	}
	res := &Fig15Result{}
	if res.GeomeanDripper, err = m.Geomean("DRIPPER", "Discard PGC", wls); err != nil {
		return nil, err
	}
	if res.GeomeanSF, err = m.Geomean("DRIPPER-SF", "Discard PGC", wls); err != nil {
		return nil, err
	}
	gap, _, err := m.Speedups("DRIPPER", "DRIPPER-SF", wls)
	if err != nil {
		return nil, err
	}
	res.SCurveGap = sortedCopy(gap)
	return res, nil
}

// Print writes the comparison.
func (r *Fig15Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Fig. 15: DRIPPER vs DRIPPER-SF (Berti)")
	fmt.Fprintf(w, "  DRIPPER    %8s over Discard PGC\n", pct(r.GeomeanDripper))
	fmt.Fprintf(w, "  DRIPPER-SF %8s over Discard PGC\n", pct(r.GeomeanSF))
	fmt.Fprintf(w, "  DRIPPER over DRIPPER-SF: median %8s\n", pct(stats.Percentile(r.SCurveGap, 50)))
}
