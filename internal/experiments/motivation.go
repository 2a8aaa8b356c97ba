package experiments

import (
	"fmt"
	"io"

	"repro/internal/stats"
	"repro/internal/trace"
)

// Fig2Result reproduces Figure 2: per-workload IPC gains of Permit PGC over
// Discard PGC for Berti, BOP and IPCP across the motivation workload set.
type Fig2Result struct {
	Workloads []string
	// Gains[prefetcher][i] is workload i's Permit/Discard speedup.
	Gains map[string][]float64
}

// Fig2 runs the motivation study.
func Fig2(o Options, wls []trace.Workload) (*Fig2Result, error) {
	o = o.withDefaults()
	if wls == nil {
		wls = trace.MotivationSet()
	}
	res := &Fig2Result{Gains: map[string][]float64{}}
	for _, w := range wls {
		res.Workloads = append(res.Workloads, w.Name)
	}
	for _, pf := range []string{"berti", "bop", "ipcp"} {
		po := o
		po.Prefetcher = pf
		m, err := RunMatrix(po, wls, []Scenario{scenarioPermit(), scenarioDiscard()})
		if err != nil {
			return nil, err
		}
		sp, _, err := m.Speedups("Permit PGC", "Discard PGC", wls)
		if err != nil {
			return nil, err
		}
		res.Gains[pf] = sp
	}
	return res, nil
}

// Print writes the figure's series.
func (r *Fig2Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Fig. 2: IPC gain of Permit PGC over Discard PGC (per workload)")
	fmt.Fprintf(w, "%-28s %10s %10s %10s\n", "workload", "berti", "bop", "ipcp")
	for i, name := range r.Workloads {
		fmt.Fprintf(w, "%-28s %10s %10s %10s\n", name,
			pct(r.Gains["berti"][i]), pct(r.Gains["bop"][i]), pct(r.Gains["ipcp"][i]))
	}
}

// Spread returns the min and max gain for a prefetcher — the paper's
// takeaway is that both sides of 1.0 are populated.
func (r *Fig2Result) Spread(prefetcher string) (min, max float64) {
	g := r.Gains[prefetcher]
	if len(g) == 0 {
		return 0, 0
	}
	min, max = g[0], g[0]
	for _, x := range g {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// Fig3Result reproduces Figure 3: the distribution and average share of
// useful vs useless page-cross prefetches under Permit PGC.
type Fig3Result struct {
	// UsefulFrac[prefetcher][i] is workload i's useful fraction in [0,1]
	// (only workloads that issued page-cross prefetches are included).
	UsefulFrac map[string][]float64
	// AvgUseful[prefetcher] is the mean useful fraction.
	AvgUseful map[string]float64
}

// Fig3 runs the usefulness study.
func Fig3(o Options, wls []trace.Workload) (*Fig3Result, error) {
	o = o.withDefaults()
	if wls == nil {
		wls = trace.MotivationSet()
	}
	res := &Fig3Result{UsefulFrac: map[string][]float64{}, AvgUseful: map[string]float64{}}
	for _, pf := range []string{"berti", "bop", "ipcp"} {
		po := o
		po.Prefetcher = pf
		m, err := RunMatrix(po, wls, []Scenario{scenarioPermit()})
		if err != nil {
			return nil, err
		}
		var sum float64
		for _, w := range wls {
			run := m["Permit PGC"][w.Name]
			tot := run.L1D.PGCUseful + run.L1D.PGCUseless
			if tot == 0 {
				continue
			}
			f := float64(run.L1D.PGCUseful) / float64(tot)
			res.UsefulFrac[pf] = append(res.UsefulFrac[pf], f)
			sum += f
		}
		if n := len(res.UsefulFrac[pf]); n > 0 {
			res.AvgUseful[pf] = sum / float64(n)
		}
	}
	return res, nil
}

// Print writes the figure's summary.
func (r *Fig3Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Fig. 3: useful vs useless page-cross prefetches under Permit PGC")
	for _, pf := range []string{"berti", "bop", "ipcp"} {
		fs := sortedCopy(r.UsefulFrac[pf])
		if len(fs) == 0 {
			fmt.Fprintf(w, "  %-6s no page-cross prefetches issued\n", pf)
			continue
		}
		fmt.Fprintf(w, "  %-6s avg useful %5.1f%%  (min %5.1f%%, median %5.1f%%, max %5.1f%%) over %d workloads\n",
			pf, r.AvgUseful[pf]*100, fs[0]*100, stats.Percentile(fs, 50)*100, fs[len(fs)-1]*100, len(fs))
	}
}

// Fig4Result reproduces Figure 4: the impact of Permit PGC on dTLB, sTLB,
// L1D and LLC MPKI relative to Discard PGC, with workloads split by whether
// Permit wins (4a) or loses (4b).
type Fig4Result struct {
	// Deltas maps "helped"/"hurt" → structure → per-workload MPKI delta
	// (Permit − Discard; negative = Permit reduces misses).
	Deltas map[string]map[string][]float64
	// Counts of workloads in each category.
	Helped, Hurt int
}

// Fig4Structures lists the structures the figure reports.
var Fig4Structures = []string{"dtlb", "stlb", "l1d", "llc"}

// Fig4 runs the MPKI impact study (Berti, like the paper).
func Fig4(o Options, wls []trace.Workload) (*Fig4Result, error) {
	o = o.withDefaults()
	o.Prefetcher = "berti"
	if wls == nil {
		wls = trace.MotivationSet()
	}
	m, err := RunMatrix(o, wls, []Scenario{scenarioPermit(), scenarioDiscard()})
	if err != nil {
		return nil, err
	}
	res := &Fig4Result{Deltas: map[string]map[string][]float64{
		"helped": {}, "hurt": {},
	}}
	for _, w := range wls {
		p, d := m["Permit PGC"][w.Name], m["Discard PGC"][w.Name]
		cat := "hurt"
		if stats.Speedup(p, d) >= 1 {
			cat = "helped"
			res.Helped++
		} else {
			res.Hurt++
		}
		for _, s := range Fig4Structures {
			res.Deltas[cat][s] = append(res.Deltas[cat][s], p.MPKI(s)-d.MPKI(s))
		}
	}
	return res, nil
}

// Mean returns the mean MPKI delta for a category and structure.
func (r *Fig4Result) Mean(category, structure string) float64 {
	return mean(r.Deltas[category][structure])
}

// Print writes the figure's two panels.
func (r *Fig4Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Fig. 4: MPKI impact of Permit PGC over Discard PGC (Berti)")
	for _, cat := range []string{"helped", "hurt"} {
		n := r.Helped
		if cat == "hurt" {
			n = r.Hurt
		}
		fmt.Fprintf(w, "  workloads where Permit %s (%d):\n", map[string]string{
			"helped": "wins (4a)", "hurt": "loses (4b)",
		}[cat], n)
		for _, s := range Fig4Structures {
			xs := sortedCopy(r.Deltas[cat][s])
			if len(xs) == 0 {
				continue
			}
			fmt.Fprintf(w, "    %-5s mean Δ %+7.3f MPKI (min %+7.3f, max %+7.3f)\n",
				s, r.Mean(cat, s), xs[0], xs[len(xs)-1])
		}
	}
}
