package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/tlb"
	"repro/internal/trace"
)

// SweepResult is a generic one-dimensional ablation: DRIPPER's geomean
// speedup over Discard PGC as one design parameter varies.
type SweepResult struct {
	Title  string
	Points []SweepPoint
}

// SweepPoint is one sweep sample.
type SweepPoint struct {
	Label   string
	Geomean float64
}

// Print writes the sweep.
func (r *SweepResult) Print(w io.Writer) {
	fmt.Fprintln(w, r.Title)
	for _, p := range r.Points {
		fmt.Fprintf(w, "  %-14s %8s\n", p.Label, pct(p.Geomean))
	}
}

// sweepPoint is one sweep input: the label its SweepPoint reports and the
// config mutation both of its runs apply.
type sweepPoint struct {
	label  string
	mutate func(*sim.Config)
}

// sweep runs DRIPPER vs Discard under a sequence of config mutations.
func sweep(o Options, wls []trace.Workload, title string, points []sweepPoint) (*SweepResult, error) {
	o = o.withDefaults()
	if wls == nil {
		wls = Sample(trace.Seen(), o.MaxWorkloads)
	}
	res := &SweepResult{Title: title}
	for _, p := range points {
		scens := []Scenario{
			{Name: "Discard PGC", Configure: func(c *sim.Config) {
				c.Policy = sim.PolicyDiscard
				p.mutate(c)
			}},
			{Name: "DRIPPER", Configure: func(c *sim.Config) {
				c.Policy = sim.PolicyDripper
				p.mutate(c)
			}},
		}
		m, err := RunMatrix(o, wls, scens)
		if err != nil {
			return nil, err
		}
		g, err := m.Geomean("DRIPPER", "Discard PGC", wls)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, SweepPoint{Label: p.label, Geomean: g})
	}
	return res, nil
}

// EpochSweep measures the adaptive thresholding scheme's sensitivity to the
// epoch length (instructions per Tick).
func EpochSweep(o Options, wls []trace.Workload) (*SweepResult, error) {
	var points []sweepPoint
	for _, epoch := range []uint64{5_000, 20_000, 80_000} {
		points = append(points, sweepPoint{fmt.Sprintf("epoch=%d", epoch), func(c *sim.Config) { c.Core.EpochInstrs = epoch }})
	}
	return sweep(o, wls, "Ablation: DRIPPER gain vs adaptive-scheme epoch length", points)
}

// STLBSweep measures DRIPPER's gain as sTLB capacity varies — smaller sTLBs
// make page-cross prefetching (and mis-prefetching) matter more.
func STLBSweep(o Options, wls []trace.Workload) (*SweepResult, error) {
	var points []sweepPoint
	for _, sets := range []int{32, 128, 512} {
		points = append(points, sweepPoint{fmt.Sprintf("stlb=%d", sets*12), func(c *sim.Config) {
			c.MMU.STLB = tlb.Config{Name: "stlb", Sets: sets, Ways: 12, Latency: 8}
		}})
	}
	return sweep(o, wls, "Ablation: DRIPPER gain vs sTLB capacity (entries)", points)
}

// DegreeSweep measures sensitivity to the prefetch degree cap.
func DegreeSweep(o Options, wls []trace.Workload) (*SweepResult, error) {
	var points []sweepPoint
	for _, deg := range []int{1, 2, 4, 8} {
		points = append(points, sweepPoint{fmt.Sprintf("degree=%d", deg), func(c *sim.Config) { c.MaxPrefetchDegree = deg }})
	}
	return sweep(o, wls, "Ablation: DRIPPER gain vs prefetch degree cap", points)
}

// VUBSweep measures the contribution of the Virtual Update Buffer's
// false-negative recovery as its capacity varies.
func VUBSweep(o Options, wls []trace.Workload) (*SweepResult, error) {
	var points []sweepPoint
	for _, entries := range []int{1, 4, 32} {
		points = append(points, sweepPoint{fmt.Sprintf("vUB=%d", entries), func(c *sim.Config) {
			fc := core.DefaultDripperConfig(c.L1DPrefetcher)
			fc.VUBEntries = entries
			c.FilterConfig = &fc
		}})
	}
	return sweep(o, wls, "Ablation: DRIPPER gain vs vUB capacity", points)
}
