// Benchmarks that regenerate every table and figure of the paper's
// evaluation. Each benchmark runs the corresponding experiment once per
// iteration at a reduced (but meaningful) scale and reports the headline
// metric as a custom unit, so `go test -bench=. -benchmem` reproduces the
// whole evaluation campaign end to end. Scale up with the cmd/experiments
// tool for full-set numbers.
//
// The Ablation* benchmarks cover the design choices DESIGN.md calls out:
// static vs adaptive threshold, vUB on/off, weight-table size and weight
// width.
package pagecross

import (
	"context"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/trace"
)

// benchOpts is the per-iteration experiment scale: enough workloads and
// instructions for the shapes to show, small enough to iterate.
func benchOpts() experiments.Options {
	return experiments.Options{
		Warmup: 50_000, Instrs: 50_000, MaxWorkloads: 12,
	}
}

func reportSpeedup(b *testing.B, name string, speedup float64) {
	b.ReportMetric((speedup-1)*100, name+"_%")
}

func BenchmarkFig2(b *testing.B) {
	wls := experiments.Sample(trace.MotivationSet(), 8)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2(benchOpts(), wls)
		if err != nil {
			b.Fatal(err)
		}
		min, max := r.Spread("berti")
		reportSpeedup(b, "berti_min", min)
		reportSpeedup(b, "berti_max", max)
	}
}

func BenchmarkFig3(b *testing.B) {
	wls := experiments.Sample(trace.MotivationSet(), 8)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3(benchOpts(), wls)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AvgUseful["berti"]*100, "useful_%")
	}
}

func BenchmarkFig4(b *testing.B) {
	wls := experiments.Sample(trace.MotivationSet(), 8)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4(benchOpts(), wls)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Mean("helped", "dtlb"), "helped_dtlb_dMPKI")
		b.ReportMetric(r.Mean("hurt", "dtlb"), "hurt_dtlb_dMPKI")
	}
}

func BenchmarkFig9(b *testing.B) {
	wls := experiments.Sample(trace.Seen(), 10)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(benchOpts(), wls)
		if err != nil {
			b.Fatal(err)
		}
		reportSpeedup(b, "berti_dripper", r.Geomeans["berti"]["DRIPPER"])
		reportSpeedup(b, "berti_permit", r.Geomeans["berti"]["Permit PGC"])
	}
}

func BenchmarkFig10(b *testing.B) {
	wls := experiments.Sample(trace.Seen(), 12)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10(benchOpts(), wls)
		if err != nil {
			b.Fatal(err)
		}
		reportSpeedup(b, "dripper", r.Overall["DRIPPER"])
		reportSpeedup(b, "permit", r.Overall["Permit PGC"])
	}
}

func BenchmarkFig11(b *testing.B) {
	wls := experiments.Sample(trace.Seen(), 12)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig11(benchOpts(), wls)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.OverallCoverage["DRIPPER"]*100, "coverage_%")
		b.ReportMetric(r.OverallAccuracy["DRIPPER"]*100, "accuracy_%")
	}
}

func BenchmarkFig12(b *testing.B) {
	wls := experiments.Sample(trace.Seen(), 12)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig12(benchOpts(), wls)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MeanDelta["DRIPPER"]["dtlb"], "dtlb_dMPKI")
		b.ReportMetric(r.MeanDelta["DRIPPER"]["l1d"], "l1d_dMPKI")
	}
}

func BenchmarkFig13(b *testing.B) {
	wls := experiments.Sample(trace.Seen(), 12)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig13(benchOpts(), wls)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MedianUseless["DRIPPER"], "dripper_uselessPKI")
		b.ReportMetric(r.MedianUseless["Permit PGC"], "permit_uselessPKI")
	}
}

func BenchmarkFig14(b *testing.B) {
	wls := experiments.Sample(trace.Seen(), 8)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig14(benchOpts(), wls)
		if err != nil {
			b.Fatal(err)
		}
		reportSpeedup(b, "dripper", r.Geomean["DRIPPER"])
	}
}

func BenchmarkFig15(b *testing.B) {
	wls := experiments.Sample(trace.Seen(), 8)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig15(benchOpts(), wls)
		if err != nil {
			b.Fatal(err)
		}
		reportSpeedup(b, "dripper", r.GeomeanDripper)
		reportSpeedup(b, "dripper_sf", r.GeomeanSF)
	}
}

func BenchmarkFig16(b *testing.B) {
	wls := experiments.Sample(trace.Seen(), 8)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig16(benchOpts(), wls)
		if err != nil {
			b.Fatal(err)
		}
		reportSpeedup(b, "dripper", r.Geomean["DRIPPER"])
		reportSpeedup(b, "dripper_2mb", r.Geomean["DRIPPER(filter@2MB)"])
	}
}

func BenchmarkFig17(b *testing.B) {
	wls := experiments.Sample(trace.Seen(), 6)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig17(benchOpts(), wls)
		if err != nil {
			b.Fatal(err)
		}
		reportSpeedup(b, "nol2_dripper", r.Geomean["none"]["DRIPPER"])
		reportSpeedup(b, "spp_dripper", r.Geomean["spp"]["DRIPPER"])
	}
}

func BenchmarkFig18(b *testing.B) {
	wls := experiments.Sample(trace.Unseen(), 10)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig18(benchOpts(), wls)
		if err != nil {
			b.Fatal(err)
		}
		reportSpeedup(b, "unseen_dripper", r.Overall["DRIPPER"])
	}
}

func BenchmarkFig19(b *testing.B) {
	o := benchOpts()
	o.Warmup, o.Instrs = 10_000, 20_000
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig19(o, 4, 3)
		if err != nil {
			b.Fatal(err)
		}
		reportSpeedup(b, "dripper_ws", r.Geomean["DRIPPER"])
	}
}

func BenchmarkTable2(b *testing.B) {
	o := benchOpts()
	o.Warmup, o.Instrs = 20_000, 30_000
	wls := experiments.Sample(trace.Seen(), 4)
	candidates := []string{"Delta", "PC^Delta", "PC", "sTLB MPKI", "sTLB MissRate"}
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table2(o, wls, candidates, []string{"berti"})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(r.Selected["berti"])), "features")
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table3()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.TotalKB, "KB")
	}
}

func BenchmarkTable5(b *testing.B) {
	o := benchOpts()
	o.MaxWorkloads = 6
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table5(o)
		if err != nil {
			b.Fatal(err)
		}
		reportSpeedup(b, "seen_dripper", r.Geomean["seen"]["DRIPPER"])
		reportSpeedup(b, "unseen_dripper", r.Geomean["unseen"]["DRIPPER"])
	}
}

// --- Ablations ------------------------------------------------------------

// ablationGeomean runs DRIPPER with a mutated filter configuration and
// returns the geomean speedup over Discard PGC.
func ablationGeomean(b *testing.B, mutate func(*core.Config)) float64 {
	b.Helper()
	wls := experiments.Sample(trace.Seen(), 8)
	o := benchOpts()
	fc := core.DefaultDripperConfig("berti")
	if mutate != nil {
		mutate(&fc)
	}
	m, err := experiments.RunMatrix(o, wls, []experiments.Scenario{
		{Name: "Discard PGC", Configure: func(c *sim.Config) { c.Policy = sim.PolicyDiscard }},
		{Name: "variant", Configure: func(c *sim.Config) {
			cfg := fc
			c.FilterConfig = &cfg
		}},
	})
	if err != nil {
		b.Fatal(err)
	}
	g, err := m.Geomean("variant", "Discard PGC", wls)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkAblationStaticThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		adaptive := ablationGeomean(b, nil)
		static := ablationGeomean(b, func(c *core.Config) {
			thr := -2
			c.StaticThreshold = &thr
		})
		reportSpeedup(b, "adaptive", adaptive)
		reportSpeedup(b, "static", static)
	}
}

func BenchmarkAblationNoVUB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with := ablationGeomean(b, nil)
		without := ablationGeomean(b, func(c *core.Config) { c.VUBEntries = 1 })
		reportSpeedup(b, "vub4", with)
		reportSpeedup(b, "vub1", without)
	}
}

func BenchmarkAblationWTSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, entries := range []int{64, 1024, 8192} {
			e := entries
			g := ablationGeomean(b, func(c *core.Config) { c.WTEntries = e })
			b.ReportMetric((g-1)*100, "wt"+itoa(e)+"_%")
		}
	}
}

func BenchmarkAblationWeightBits(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, bits := range []int{3, 5, 7} {
			w := bits
			g := ablationGeomean(b, func(c *core.Config) { c.WeightBits = w })
			b.ReportMetric((g-1)*100, "w"+itoa(w)+"bit_%")
		}
	}
}

// BenchmarkFDPvsDripper contrasts the paper's per-prefetch filtering with
// classic whole-engine throttling (Feedback-Directed Prefetching, §VI):
// FDP with Permit PGC cannot selectively keep the useful page-cross
// prefetches.
func BenchmarkFDPvsDripper(b *testing.B) {
	wls := experiments.Sample(trace.Seen(), 8)
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		m, err := experiments.RunMatrix(o, wls, []experiments.Scenario{
			{Name: "Discard PGC", Configure: func(c *sim.Config) { c.Policy = sim.PolicyDiscard }},
			{Name: "FDP+Permit", Configure: func(c *sim.Config) {
				c.Policy = sim.PolicyPermit
				c.FDPThrottle = true
			}},
			{Name: "DRIPPER", Configure: func(c *sim.Config) { c.Policy = sim.PolicyDripper }},
		})
		if err != nil {
			b.Fatal(err)
		}
		fdp, err := m.Geomean("FDP+Permit", "Discard PGC", wls)
		if err != nil {
			b.Fatal(err)
		}
		dr, err := m.Geomean("DRIPPER", "Discard PGC", wls)
		if err != nil {
			b.Fatal(err)
		}
		reportSpeedup(b, "fdp_permit", fdp)
		reportSpeedup(b, "dripper", dr)
	}
}

func BenchmarkAblationLLCReplacement(b *testing.B) {
	wls := experiments.Sample(trace.Seen(), 6)
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		for _, repl := range []cache.ReplPolicy{cache.ReplLRU, cache.ReplSRRIP, cache.ReplRandom} {
			r := repl
			m, err := experiments.RunMatrix(o, wls, []experiments.Scenario{
				{Name: "Discard PGC", Configure: func(c *sim.Config) {
					c.Policy = sim.PolicyDiscard
					c.LLC.Repl = r
				}},
				{Name: "DRIPPER", Configure: func(c *sim.Config) {
					c.Policy = sim.PolicyDripper
					c.LLC.Repl = r
				}},
			})
			if err != nil {
				b.Fatal(err)
			}
			g, err := m.Geomean("DRIPPER", "Discard PGC", wls)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric((g-1)*100, string(r)+"_%")
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkRunWorkload is the canonical single-workload throughput
// benchmark: one full Run (setup + 100k measured instructions of
// spec.stream_s00 under DRIPPER) per iteration, with
// allocation counts (the hot-path work targets allocations per simulated
// instruction as much as wall clock).
func BenchmarkRunWorkload(b *testing.B) {
	w, ok := trace.ByName("spec.stream_s00")
	if !ok {
		b.Fatal("workload missing")
	}
	cfg := sim.DefaultConfig()
	cfg.Policy = sim.PolicyDripper
	cfg.WarmupInstrs = 0
	cfg.SimInstrs = 100_000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), cfg, w); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cfg.SimInstrs)*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkRunWorkloadSampled is BenchmarkRunWorkload's fast-mode twin: the
// same workload and policy under the default auto-period sampling schedule, at a
// budget (10M instructions) where the fixed interval count thins the
// detailed fraction to ~1%. instrs/s counts budget instructions covered per
// wall second, the same accounting as the full benchmark, so the ratio of
// the two metrics is the end-to-end sampling speedup.
func BenchmarkRunWorkloadSampled(b *testing.B) {
	w, ok := trace.ByName("spec.stream_s00")
	if !ok {
		b.Fatal("workload missing")
	}
	cfg := sim.DefaultConfig()
	cfg.Policy = sim.PolicyDripper
	cfg.WarmupInstrs = 0
	cfg.SimInstrs = 10_000_000
	cfg.Sample = sim.SampleConfig{Enabled: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), cfg, w); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cfg.SimInstrs)*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkRunCampaign measures the campaign engine around the same cells:
// "cold" pays simulation plus cache writes, "warm" is pure cache-hit reads
// — the factor between them is what a warm re-run of the evaluation saves.
func BenchmarkRunCampaign(b *testing.B) {
	w, ok := trace.ByName("spec.stream_s00")
	if !ok {
		b.Fatal("workload missing")
	}
	cfg := sim.DefaultConfig()
	cfg.Policy = sim.PolicyDripper
	cfg.WarmupInstrs = 0
	cfg.SimInstrs = 20_000
	spec := CampaignSpec{Name: "bench", Cells: []CampaignCell{
		{ID: "cell", Config: cfg, Workload: w},
	}}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep, err := RunCampaign(context.Background(), spec, WithCache(b.TempDir()))
			if err != nil || rep.Simulated != 1 {
				b.Fatalf("cold campaign: %v %+v", err, rep)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		dir := b.TempDir()
		if _, err := RunCampaign(context.Background(), spec, WithCache(dir)); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep, err := RunCampaign(context.Background(), spec, WithCache(dir))
			if err != nil || rep.CacheHits != 1 {
				b.Fatalf("warm campaign: %v %+v", err, rep)
			}
		}
	})
}

// BenchmarkTracerOverhead quantifies the cost of the observability layer on
// the full simulation path. Run with -benchmem: the disabled case must show
// the same allocation count as the enabled one (the tracer pre-allocates its
// ring; Emit never allocates), and wall-clock overhead should be noise-level.
func BenchmarkTracerOverhead(b *testing.B) {
	w, ok := trace.ByName("spec.pagehop_s00")
	if !ok {
		b.Fatal("workload missing")
	}
	for _, bc := range []struct {
		name string
		cap  int
	}{{"disabled", 0}, {"enabled", 1 << 14}} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := sim.DefaultConfig()
			cfg.Policy = sim.PolicyDripper
			cfg.WarmupInstrs = 0
			cfg.SimInstrs = 50_000
			cfg.TraceCapacity = bc.cap
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.RunWorkload(context.Background(), cfg, w); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cfg.SimInstrs)*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
		})
	}
}

// BenchmarkCheckOverhead quantifies the differential oracle's cost on the
// full simulation path. Run with -benchmem: "disabled" must match the
// baseline allocation count exactly (the only residue of the check machinery
// is a nil comparison per poll/epoch boundary), while "enabled" buys the
// lockstep functional cross-check.
func BenchmarkCheckOverhead(b *testing.B) {
	w, ok := trace.ByName("spec.pagehop_s00")
	if !ok {
		b.Fatal("workload missing")
	}
	for _, bc := range []struct {
		name    string
		enabled bool
	}{{"disabled", false}, {"enabled", true}} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := sim.DefaultConfig()
			cfg.Policy = sim.PolicyDripper
			cfg.WarmupInstrs = 0
			cfg.SimInstrs = 50_000
			cfg.Check.Enabled = bc.enabled
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.RunWorkload(context.Background(), cfg, w); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cfg.SimInstrs)*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
		})
	}
}
