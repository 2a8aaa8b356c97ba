package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/trace"
)

// tinyOpts keeps test runs fast: a few workloads, small budgets.
func tinyOpts() Options {
	return Options{Warmup: 20_000, Instrs: 40_000, MaxWorkloads: 8}
}

// tinySet returns a small diverse workload set including both friendly and
// hostile families.
func tinySet(t *testing.T) []trace.Workload {
	t.Helper()
	var out []trace.Workload
	want := []string{"spec.stream_s00", "spec.stream_s01", "spec.pagehop_s00",
		"spec.pagehop_s01", "gap.graph_s00", "qmm_int.qmm_s00"}
	for _, name := range want {
		w, ok := trace.ByName(name)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		out = append(out, w)
	}
	return out
}

func TestSample(t *testing.T) {
	ws := trace.Seen()
	s := Sample(ws, 10)
	if len(s) != 10 {
		t.Fatalf("sampled %d", len(s))
	}
	if len(Sample(ws, 0)) != len(ws) {
		t.Fatal("n=0 should return all")
	}
	if len(Sample(ws, 10_000)) != len(ws) {
		t.Fatal("n>len should return all")
	}
	suites := map[string]bool{}
	for _, w := range Sample(ws, 30) {
		suites[w.Suite] = true
	}
	if len(suites) < 4 {
		t.Fatalf("sampling lost suite diversity: %v", suites)
	}
}

func TestRunMatrixAndGeomean(t *testing.T) {
	wls := tinySet(t)[:2]
	m, err := RunMatrix(tinyOpts(), wls, []Scenario{scenarioDiscard(), scenarioPermit()})
	if err != nil {
		t.Fatal(err)
	}
	g, err := m.Geomean("Permit PGC", "Discard PGC", wls)
	if err != nil {
		t.Fatal(err)
	}
	if g <= 0 {
		t.Fatalf("geomean %g", g)
	}
	if _, err := m.Geomean("nope", "Discard PGC", wls); err == nil {
		t.Fatal("missing scenario accepted")
	}
}

func TestFig2ShowsBothSides(t *testing.T) {
	// The motivation result, that Permit helps some workloads and hurts
	// others, is the fig2-spread claim TestVerifyShapes checks on this set.
	r, err := Fig2(tinyOpts(), tinySet(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, pf := range []string{"berti", "bop", "ipcp"} {
		if len(r.Gains[pf]) != len(r.Workloads) {
			t.Fatalf("%s: %d gains for %d workloads", pf, len(r.Gains[pf]), len(r.Workloads))
		}
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "Fig. 2") {
		t.Fatal("print missing header")
	}
}

func TestFig3AccuracyIsMiddling(t *testing.T) {
	// The paper: ~50% of page-cross prefetches are useful on average —
	// i.e. neither ~0 nor ~1 across the board.
	r, err := Fig3(tinyOpts(), tinySet(t))
	if err != nil {
		t.Fatal(err)
	}
	avg := r.AvgUseful["berti"]
	if avg <= 0.05 || avg >= 0.99 {
		t.Errorf("berti average useful fraction %.2f; expected an intermediate value", avg)
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "berti") {
		t.Fatal("print missing series")
	}
}

func TestFig4SplitsCategories(t *testing.T) {
	r, err := Fig4(tinyOpts(), tinySet(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.Helped+r.Hurt != len(tinySet(t)) {
		t.Fatalf("categories don't partition: %d+%d", r.Helped, r.Hurt)
	}
	// Where Permit wins, it should reduce dTLB MPKI on average (Fig. 4a).
	if r.Helped > 0 && r.Mean("helped", "dtlb") > 0 {
		t.Errorf("helped dTLB MPKI delta %+.3f, expected <= 0", r.Mean("helped", "dtlb"))
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "4a") {
		t.Fatal("print missing panels")
	}
}

func TestFig9DripperCompetitive(t *testing.T) {
	r, err := Fig9(tinyOpts(), tinySet(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, pf := range []string{"berti", "bop", "ipcp"} {
		d := r.Geomeans[pf]["DRIPPER"]
		p := r.Geomeans[pf]["Permit PGC"]
		if d <= 0 || p <= 0 {
			t.Fatalf("%s: zero geomeans", pf)
		}
		// DRIPPER must not be substantially worse than the best static
		// policy; the paper's claim (DRIPPER strictly best) is asserted on
		// the larger nightly runs in EXPERIMENTS.md, not on 6 workloads.
		best := p
		if 1 > best {
			best = 1
		}
		if d < best*0.97 {
			t.Errorf("%s: DRIPPER %.3f far below best static %.3f", pf, d, best)
		}
	}
	var buf bytes.Buffer
	r.Print(&buf)
	for _, s := range []string{"Permit PGC", "Discard PTW", "ISO Storage", "PPF", "DRIPPER"} {
		if !strings.Contains(buf.String(), s) {
			t.Errorf("print missing scenario %s", s)
		}
	}
}

func TestFig10SCurveAndSuites(t *testing.T) {
	r, err := Fig10(tinyOpts(), tinySet(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.SCurve["DRIPPER"]) != len(tinySet(t)) {
		t.Fatal("s-curve size mismatch")
	}
	// Ascending order.
	curve := r.SCurve["DRIPPER"]
	for i := 1; i < len(curve); i++ {
		if curve[i] < curve[i-1] {
			t.Fatal("s-curve not sorted")
		}
	}
	if len(r.Suites) == 0 || r.Overall["DRIPPER"] <= 0 {
		t.Fatal("missing aggregates")
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "per-suite") {
		t.Fatal("print missing suite breakdown")
	}
}

func TestFig11DripperAccuracyBeatsPermit(t *testing.T) {
	// The paper's Fig. 11 bottom, DRIPPER's accuracy delta beating
	// Permit's, is the fig11-accuracy claim TestVerifyShapes checks on this
	// set.
	r, err := Fig11(tinyOpts(), tinySet(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Suites) == 0 || len(r.AccuracyDelta["DRIPPER"]) != len(r.Suites) {
		t.Fatalf("accuracy deltas %v for suites %v", r.AccuracyDelta["DRIPPER"], r.Suites)
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "coverage") {
		t.Fatal("print missing coverage")
	}
}

func TestFig12Fig13Shapes(t *testing.T) {
	r12, err := Fig12(tinyOpts(), tinySet(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []string{"Permit PGC", "DRIPPER"} {
		for _, st := range Fig4Structures {
			if len(r12.Curves[sc][st]) != len(tinySet(t)) {
				t.Fatalf("%s/%s curve missing", sc, st)
			}
		}
	}
	r13, err := Fig13(tinyOpts(), tinySet(t))
	if err != nil {
		t.Fatal(err)
	}
	// DRIPPER's useless PKI must not exceed Permit's (it filters).
	if r13.MedianUseless["DRIPPER"] > r13.MedianUseless["Permit PGC"]+0.5 {
		t.Errorf("DRIPPER useless PKI median %.2f above Permit %.2f",
			r13.MedianUseless["DRIPPER"], r13.MedianUseless["Permit PGC"])
	}
	var buf bytes.Buffer
	r12.Print(&buf)
	r13.Print(&buf)
	if !strings.Contains(buf.String(), "Fig. 12") || !strings.Contains(buf.String(), "Fig. 13") {
		t.Fatal("prints missing headers")
	}
}

func TestFig14Fig15Run(t *testing.T) {
	wls := tinySet(t)[:3]
	r14, err := Fig14(tinyOpts(), wls)
	if err != nil {
		t.Fatal(err)
	}
	if len(r14.Scenarios) != 4 { // DRIPPER + 3 single-feature filters
		t.Fatalf("scenarios: %v", r14.Scenarios)
	}
	r15, err := Fig15(tinyOpts(), wls)
	if err != nil {
		t.Fatal(err)
	}
	if r15.GeomeanDripper <= 0 || r15.GeomeanSF <= 0 {
		t.Fatal("missing geomeans")
	}
	var buf bytes.Buffer
	r14.Print(&buf)
	r15.Print(&buf)
	if !strings.Contains(buf.String(), "DRIPPER-SF") {
		t.Fatal("print missing DRIPPER-SF")
	}
}

func TestFig16LargePages(t *testing.T) {
	r, err := Fig16(tinyOpts(), tinySet(t)[:3])
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []string{"Permit PGC", "DRIPPER(filter@2MB)", "DRIPPER"} {
		if r.Geomean[sc] <= 0 {
			t.Fatalf("scenario %s missing", sc)
		}
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "2MB") {
		t.Fatal("print missing")
	}
}

func TestFig17L2CPrefetchers(t *testing.T) {
	r, err := Fig17(tinyOpts(), tinySet(t)[:2])
	if err != nil {
		t.Fatal(err)
	}
	if len(r.L2CPrefetchers) != 4 {
		t.Fatalf("L2C prefetchers: %v", r.L2CPrefetchers)
	}
	for _, l2 := range r.L2CPrefetchers {
		if r.Geomean[l2]["DRIPPER"] <= 0 {
			t.Fatalf("missing geomean for l2=%s", l2)
		}
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "spp") {
		t.Fatal("print missing spp row")
	}
}

func TestFig18UnseenRuns(t *testing.T) {
	unseen := Sample(trace.Unseen(), 4)
	r, err := Fig18(tinyOpts(), unseen)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.SCurve["DRIPPER"]) != len(unseen) {
		t.Fatal("unseen s-curve missing")
	}
}

func TestTable5Runs(t *testing.T) {
	o := tinyOpts()
	o.MaxWorkloads = 3
	r, err := Table5(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range []string{"seen", "unseen", "all"} {
		if r.Geomean[set]["DRIPPER"] <= 0 {
			t.Fatalf("set %s missing", set)
		}
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "Table V") {
		t.Fatal("print missing header")
	}
}

func TestFig19SmallScale(t *testing.T) {
	o := tinyOpts()
	o.Warmup, o.Instrs = 5_000, 10_000
	r, err := Fig19(o, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.WeightedSpeedups["DRIPPER"]) != 2 {
		t.Fatalf("mixes: %d", len(r.WeightedSpeedups["DRIPPER"]))
	}
	for _, ws := range r.WeightedSpeedups["DRIPPER"] {
		if ws <= 0 {
			t.Fatalf("weighted speedup %g", ws)
		}
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "2-core") {
		t.Fatal("print missing header")
	}
}

func TestTable2Selection(t *testing.T) {
	o := tinyOpts()
	o.Warmup, o.Instrs = 10_000, 20_000
	// Narrow candidate pool and one prefetcher to keep the test quick.
	r, err := Table2(o, tinySet(t)[:2], []string{"Delta", "PC", "sTLB MPKI"}, []string{"berti"})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Selected["berti"]) == 0 {
		t.Fatal("no features selected")
	}
	if len(r.Ranking["berti"]) != 3 {
		t.Fatalf("ranking: %v", r.Ranking["berti"])
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "Table II") {
		t.Fatal("print missing header")
	}
}

func TestTable3Storage(t *testing.T) {
	r, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalKB < 1.39 || r.TotalKB > 1.45 {
		t.Fatalf("total %.3f KB, want ~1.42", r.TotalKB)
	}
	sum := 0.0
	for _, v := range r.Rows {
		sum += v
	}
	if sum < r.TotalKB-0.01 || sum > r.TotalKB+0.01 {
		t.Fatalf("rows sum %.4f != total %.4f", sum, r.TotalKB)
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "pUB") {
		t.Fatal("print missing rows")
	}
}

func TestAblationSweeps(t *testing.T) {
	o := tinyOpts()
	o.Warmup, o.Instrs = 10_000, 20_000
	wls := tinySet(t)[:2]
	for name, fn := range map[string]func(Options, []trace.Workload) (*SweepResult, error){
		"epoch":  EpochSweep,
		"stlb":   STLBSweep,
		"degree": DegreeSweep,
		"vub":    VUBSweep,
	} {
		r, err := fn(o, wls)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(r.Points) < 3 {
			t.Fatalf("%s: %d points", name, len(r.Points))
		}
		for _, p := range r.Points {
			if p.Geomean <= 0 {
				t.Fatalf("%s/%s: geomean %g", name, p.Label, p.Geomean)
			}
		}
		var buf bytes.Buffer
		r.Print(&buf)
		if !strings.Contains(buf.String(), "Ablation") {
			t.Fatalf("%s: print missing title", name)
		}
	}
}

func TestVerifyShapes(t *testing.T) {
	o := tinyOpts()
	o.Warmup, o.Instrs = 20_000, 40_000
	rep, err := VerifyShapes(o, tinySet(t))
	if err != nil {
		t.Fatal(err)
	}
	// One check per listed claim, each under its own name, each standing
	// for a headline row of EXPERIMENTS.md.
	pass, total := rep.Passed()
	if total != len(claims) {
		t.Fatalf("%d checks for %d claims", total, len(claims))
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	for i, c := range rep.Checks {
		if ids[c.Name] {
			t.Errorf("claim %s listed twice", c.Name)
		}
		ids[c.Name] = true
		if fig := claims[i].figure; !strings.Contains(string(doc), "| "+fig+" |") {
			t.Errorf("claim %s: EXPERIMENTS.md has no %s headline row", c.Name, fig)
		}
	}
	// The figure tests leave these rules to the list, so dropping one of
	// them fails here instead of silently narrowing the suite.
	for _, id := range []string{"fig2-spread", "fig9-dripper-vs-permit", "fig11-accuracy",
		"fig11-coverage", "fig13-useless", "fig12-tlb"} {
		if !ids[id] {
			t.Errorf("claim %s missing from the report", id)
		}
	}
	// On the curated tiny set every core shape must hold.
	if pass != total {
		var buf bytes.Buffer
		rep.Print(&buf)
		t.Fatalf("shape checks failed:\n%s", buf.String())
	}
	var buf bytes.Buffer
	rep.Print(&buf)
	if !strings.Contains(buf.String(), "fig9-dripper-vs-permit") {
		t.Fatal("print missing check names")
	}
}
