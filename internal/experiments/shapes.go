package experiments

import (
	"fmt"
	"io"

	"repro/internal/trace"
)

// ShapeCheck is one qualitative assertion from the paper, evaluated against
// a fresh run of the corresponding experiment. The shape harness turns the
// EXPERIMENTS.md reading guide into executable checks.
type ShapeCheck struct {
	Name   string
	Claim  string
	Pass   bool
	Detail string
}

// ShapeReport is the outcome of a shape run.
type ShapeReport struct {
	Checks []ShapeCheck
}

// Passed counts passing checks.
func (r *ShapeReport) Passed() (pass, total int) {
	for _, c := range r.Checks {
		if c.Pass {
			pass++
		}
	}
	return pass, len(r.Checks)
}

// Print writes the report.
func (r *ShapeReport) Print(w io.Writer) {
	pass, total := r.Passed()
	fmt.Fprintf(w, "Shape checks: %d/%d pass\n", pass, total)
	for _, c := range r.Checks {
		mark := "PASS"
		if !c.Pass {
			mark = "FAIL"
		}
		fmt.Fprintf(w, "  [%s] %-22s %s (%s)\n", mark, c.Name, c.Claim, c.Detail)
	}
}

// shapeFigures are the figure results the claims read, all reduced from one
// {Discard, Permit, DRIPPER} matrix run with one prefetcher.
type shapeFigures struct {
	prefetcher string
	fig2       *Fig2Result // the prefetcher's gains only
	fig10      *Fig10Result
	fig11      *Fig11Result
	fig12      *Fig12Result
	fig13      *Fig13Result
}

// claim is one qualitative shape of the paper. id names it in reports;
// figure is the EXPERIMENTS.md headline row it stands for; check decides it
// from the reduced figures and returns the numbers it compared.
type claim struct {
	id, figure, text string
	check            func(f *shapeFigures) (pass bool, detail string)
}

// claims is the one place a paper claim's rule lives: VerifyShapes,
// `experiments -exp shapes` and TestVerifyShapes all evaluate this list, and
// the tests restate none of its rules.
var claims = []claim{
	{"fig2-spread", "Fig. 2", "Permit helps some workloads and hurts others",
		func(f *shapeFigures) (bool, string) {
			lo, hi := f.fig2.Spread(f.prefetcher)
			return lo < 1 && hi > 1, fmt.Sprintf("min %s max %s", pct(lo), pct(hi))
		}},
	{"fig9-dripper-vs-permit", "Fig. 9", "DRIPPER beats Permit PGC in geomean",
		func(f *shapeFigures) (bool, string) {
			d, p := f.fig10.Overall["DRIPPER"], f.fig10.Overall["Permit PGC"]
			return d >= p, fmt.Sprintf("DRIPPER %s vs Permit %s", pct(d), pct(p))
		}},
	{"fig11-accuracy", "Fig. 11", "DRIPPER's accuracy delta beats Permit's",
		func(f *shapeFigures) (bool, string) {
			d, p := f.fig11.OverallAccuracy["DRIPPER"], f.fig11.OverallAccuracy["Permit PGC"]
			return d >= p-0.005, fmt.Sprintf("DRIPPER %+.2f%% vs Permit %+.2f%%", d*100, p*100)
		}},
	{"fig11-coverage", "Fig. 11", "DRIPPER keeps most of Permit's coverage",
		func(f *shapeFigures) (bool, string) {
			d, p := f.fig11.OverallCoverage["DRIPPER"], f.fig11.OverallCoverage["Permit PGC"]
			return d >= p*0.5, fmt.Sprintf("DRIPPER %+.2f%% vs Permit %+.2f%%", d*100, p*100)
		}},
	{"fig13-useless", "Fig. 13", "DRIPPER cuts useless page-cross prefetches",
		func(f *shapeFigures) (bool, string) {
			d, p := mean(f.fig13.UselessPKI["DRIPPER"]), mean(f.fig13.UselessPKI["Permit PGC"])
			return d <= p, fmt.Sprintf("DRIPPER %.2f vs Permit %.2f useless/kinstr (mean)", d, p)
		}},
	{"fig12-tlb", "Fig. 12", "DRIPPER reduces TLB MPKIs (dTLB at least as much as sTLB)",
		func(f *shapeFigures) (bool, string) {
			dtlb, stlb := f.fig12.MeanDelta["DRIPPER"]["dtlb"], f.fig12.MeanDelta["DRIPPER"]["stlb"]
			return dtlb <= 0.01 && dtlb <= stlb+0.01, fmt.Sprintf("dTLB %+.3f sTLB %+.3f mean ΔMPKI", dtlb, stlb)
		}},
}

// VerifyShapes runs the core qualitative claims of the paper at the given
// scale and reports which hold. It is the programmatic companion to
// EXPERIMENTS.md: run it after any simulator change to see which paper
// shapes survived.
func VerifyShapes(o Options, wls []trace.Workload) (*ShapeReport, error) {
	o = o.withDefaults()
	m, wls, err := runPolicies(o, wls)
	if err != nil {
		return nil, err
	}
	gains, _, err := m.Speedups("Permit PGC", "Discard PGC", wls)
	if err != nil {
		return nil, err
	}
	fig10, err := newSCurveResult(m, wls)
	if err != nil {
		return nil, err
	}
	f := &shapeFigures{
		prefetcher: o.Prefetcher,
		fig2:       &Fig2Result{Gains: map[string][]float64{o.Prefetcher: gains}},
		fig10:      fig10,
		fig11:      newFig11Result(m, wls),
		fig12:      newFig12Result(m, wls),
		fig13:      newFig13Result(m, wls),
	}
	rep := &ShapeReport{}
	for _, c := range claims {
		pass, detail := c.check(f)
		rep.Checks = append(rep.Checks, ShapeCheck{Name: c.id, Claim: c.text, Pass: pass, Detail: detail})
	}
	return rep, nil
}
