package sim

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/trace"
)

// testConfig returns a fast configuration for integration tests.
func testConfig(policy PolicyKind) Config {
	cfg := DefaultConfig()
	cfg.Policy = policy
	cfg.WarmupInstrs = 20_000
	cfg.SimInstrs = 40_000
	cfg.Core.EpochInstrs = 5_000
	return cfg
}

// streamWorkload returns a page-cross-friendly seen workload.
func streamWorkload(t *testing.T) trace.Workload {
	t.Helper()
	for _, w := range trace.Seen() {
		if w.Suite == "spec" && w.Name == "spec.stream_s00" {
			return w
		}
	}
	t.Fatal("stream workload not found")
	return trace.Workload{}
}

// pagehopWorkload returns a page-cross-hostile seen workload.
func pagehopWorkload(t *testing.T) trace.Workload {
	t.Helper()
	for _, w := range trace.Seen() {
		if w.Name == "spec.pagehop_s00" {
			return w
		}
	}
	t.Fatal("pagehop workload not found")
	return trace.Workload{}
}

func runOne(t *testing.T, cfg Config, w trace.Workload) *stats.Run {
	t.Helper()
	r, err := RunWorkload(context.Background(), cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunWorkloadBasics(t *testing.T) {
	cfg := testConfig(PolicyDiscard)
	r := runOne(t, cfg, streamWorkload(t))
	if r.Core.Instructions != cfg.SimInstrs {
		t.Fatalf("instructions = %d, want %d", r.Core.Instructions, cfg.SimInstrs)
	}
	if r.IPC() <= 0 || r.IPC() > 6 {
		t.Fatalf("IPC = %g out of range", r.IPC())
	}
	if r.L1D.DemandAccesses == 0 || r.L1I.DemandAccesses == 0 {
		t.Fatal("caches saw no demand traffic")
	}
	if r.DTLB.DemandAccesses == 0 {
		t.Fatal("dTLB saw no traffic")
	}
}

func TestDiscardNeverIssuesPageCross(t *testing.T) {
	r := runOne(t, testConfig(PolicyDiscard), streamWorkload(t))
	if r.L1D.PGCIssued != 0 {
		t.Fatalf("Discard PGC issued %d page-cross prefetches", r.L1D.PGCIssued)
	}
	if r.L1D.PGCDropped == 0 {
		t.Fatal("a streaming workload must generate page-cross candidates")
	}
	if r.PTW.SpeculativeWalks != 0 {
		t.Fatal("Discard PGC must not trigger speculative walks")
	}
}

func TestPermitIssuesPageCross(t *testing.T) {
	r := runOne(t, testConfig(PolicyPermit), streamWorkload(t))
	if r.L1D.PGCIssued == 0 {
		t.Fatal("Permit PGC issued no page-cross prefetches on a stream")
	}
	if r.PTW.SpeculativeWalks == 0 {
		t.Fatal("page-cross prefetches to fresh pages must walk speculatively")
	}
}

func TestDiscardPTWNeverWalksSpeculatively(t *testing.T) {
	r := runOne(t, testConfig(PolicyDiscardPTW), streamWorkload(t))
	if r.PTW.SpeculativeWalks != 0 {
		t.Fatalf("Discard PTW triggered %d speculative walks", r.PTW.SpeculativeWalks)
	}
	// On a forward stream the next page is almost never TLB-resident, so
	// Discard PTW issues few or no page-cross prefetches — that is exactly
	// why it leaves performance on the table (§V-A). It must still have
	// dropped the non-resident candidates.
	if r.L1D.PGCDropped == 0 {
		t.Fatal("Discard PTW saw no page-cross candidates")
	}
}

func TestPermitHelpsStreamHurtsPagehop(t *testing.T) {
	// The paper's central motivation (Fig. 2): Permit beats Discard on
	// page-cross-friendly workloads and loses on hostile ones.
	stream := streamWorkload(t)
	discard := runOne(t, testConfig(PolicyDiscard), stream)
	permit := runOne(t, testConfig(PolicyPermit), stream)
	if sp := stats.Speedup(permit, discard); sp < 1.0 {
		t.Errorf("stream: Permit/Discard speedup = %.3f, want > 1", sp)
	}
	// dTLB MPKI should drop when crossing pages on a stream.
	if permit.MPKI("dtlb") > discard.MPKI("dtlb") {
		t.Errorf("stream: Permit dTLB MPKI %.2f > Discard %.2f",
			permit.MPKI("dtlb"), discard.MPKI("dtlb"))
	}

	hop := pagehopWorkload(t)
	discardH := runOne(t, testConfig(PolicyDiscard), hop)
	permitH := runOne(t, testConfig(PolicyPermit), hop)
	// On the hostile pattern most issued page-cross prefetches are useless.
	if permitH.L1D.PGCIssued > 0 {
		frac := float64(permitH.L1D.PGCUseless) /
			float64(permitH.L1D.PGCUseless+permitH.L1D.PGCUseful+1)
		if frac < 0.5 {
			t.Errorf("pagehop: only %.0f%% of page-cross prefetches useless, expected most", frac*100)
		}
	}
	if sp := stats.Speedup(permitH, discardH); sp > 1.05 {
		t.Errorf("pagehop: Permit/Discard speedup = %.3f, expected no big win", sp)
	}
}

func TestDripperRunsAndFilters(t *testing.T) {
	cfg := testConfig(PolicyDripper)
	r := runOne(t, cfg, streamWorkload(t))
	if r.L1D.PGCIssued+r.L1D.PGCDropped == 0 {
		t.Fatal("DRIPPER saw no page-cross candidates")
	}
	if r.Core.Instructions != cfg.SimInstrs {
		t.Fatal("DRIPPER run incomplete")
	}
}

func TestDripperBeatsPermitOnHostile(t *testing.T) {
	hop := pagehopWorkload(t)
	permit := runOne(t, testConfig(PolicyPermit), hop)
	dripper := runOne(t, testConfig(PolicyDripper), hop)
	// DRIPPER must issue fewer useless page-cross prefetches than Permit.
	if permit.L1D.PGCUseless > 0 && dripper.L1D.PGCUseless > permit.L1D.PGCUseless {
		t.Errorf("DRIPPER useless PGC %d > Permit %d",
			dripper.L1D.PGCUseless, permit.L1D.PGCUseless)
	}
}

func TestAllPoliciesRun(t *testing.T) {
	w := streamWorkload(t)
	for _, p := range []PolicyKind{PolicyPermit, PolicyDiscard, PolicyDiscardPTW,
		PolicyDripper, PolicyPPF, PolicyPPFDthr, PolicyDripperSF} {
		cfg := testConfig(p)
		cfg.WarmupInstrs = 5_000
		cfg.SimInstrs = 10_000
		if _, err := RunWorkload(context.Background(), cfg, w); err != nil {
			t.Errorf("policy %s: %v", p, err)
		}
	}
}

func TestAllPrefetchersRun(t *testing.T) {
	w := streamWorkload(t)
	for _, pf := range []string{"berti", "ipcp", "bop", "none"} {
		cfg := testConfig(PolicyPermit)
		cfg.L1DPrefetcher = pf
		cfg.WarmupInstrs = 5_000
		cfg.SimInstrs = 10_000
		r, err := RunWorkload(context.Background(), cfg, w)
		if err != nil {
			t.Fatalf("prefetcher %s: %v", pf, err)
		}
		if pf != "none" && r.L1D.PrefetchFills == 0 {
			t.Errorf("prefetcher %s filled nothing on a stream", pf)
		}
	}
}

func TestL2CPrefetchers(t *testing.T) {
	w := streamWorkload(t)
	for _, pf := range []string{"spp", "ipcp", "bop"} {
		cfg := testConfig(PolicyDiscard)
		cfg.L2CPrefetcher = pf
		cfg.WarmupInstrs = 5_000
		cfg.SimInstrs = 15_000
		r, err := RunWorkload(context.Background(), cfg, w)
		if err != nil {
			t.Fatalf("L2C prefetcher %s: %v", pf, err)
		}
		if r.L2C.PrefetchFills == 0 {
			t.Errorf("L2C prefetcher %s filled nothing", pf)
		}
		if r.L2C.PGCIssued != 0 {
			t.Errorf("L2C prefetcher %s crossed a physical page", pf)
		}
	}
}

func TestISOStorageForcesPermit(t *testing.T) {
	cfg := testConfig(PolicyDripper)
	cfg.ISOStorage = true
	cfg.WarmupInstrs = 5_000
	cfg.SimInstrs = 10_000
	r, err := RunWorkload(context.Background(), cfg, streamWorkload(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.L1D.PGCIssued == 0 {
		t.Fatal("ISO Storage should permit page-cross prefetching")
	}
}

func TestLargePagesRun(t *testing.T) {
	cfg := testConfig(PolicyDripper)
	cfg.VMem.LargePages = true
	cfg.VMem.LargePageFraction = 0.5
	cfg.WarmupInstrs = 5_000
	cfg.SimInstrs = 15_000
	r, err := RunWorkload(context.Background(), cfg, streamWorkload(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.Core.Instructions != cfg.SimInstrs {
		t.Fatal("large-page run incomplete")
	}
	// filter@2MB variant must also run.
	cfg.FilterAt2MB = true
	if _, err := RunWorkload(context.Background(), cfg, streamWorkload(t)); err != nil {
		t.Fatal(err)
	}
}

func TestCustomFilterConfig(t *testing.T) {
	cfg := testConfig(PolicyDripper)
	fc := core.SingleFeatureConfig("Delta")
	cfg.FilterConfig = &fc
	cfg.WarmupInstrs = 5_000
	cfg.SimInstrs = 10_000
	if _, err := RunWorkload(context.Background(), cfg, streamWorkload(t)); err != nil {
		t.Fatal(err)
	}
}

// TestInvalidConfigsRejected: a name outside a level's vocabulary fails
// New, and CheckNames reports the same error without building anything.
func TestInvalidConfigsRejected(t *testing.T) {
	cases := []struct {
		set     func(*Config)
		wantErr string
	}{
		{func(c *Config) { c.L1DPrefetcher = "bogus" }, `sim: unknown L1D prefetcher "bogus"`},
		{func(c *Config) { c.L1DPrefetcher = "spp" }, `sim: unknown L1D prefetcher "spp"`},
		{func(c *Config) { c.L1DPrefetcher = "stride" }, `sim: unknown L1D prefetcher "stride"`},
		{func(c *Config) { c.L1DPrefetcher = "sms" }, `sim: unknown L1D prefetcher "sms"`},
		{func(c *Config) { c.L2CPrefetcher = "bogus" }, `sim: unknown L2C prefetcher "bogus"`},
		{func(c *Config) { c.L2CPrefetcher = "berti" }, `sim: unknown L2C prefetcher "berti"`},
		{func(c *Config) { c.L1IPrefetcher = "ipcp" }, `sim: unknown L1I prefetcher "ipcp"`},
		{func(c *Config) { c.Policy = "bogus-policy" }, `sim: unknown policy "bogus-policy"`},
		{func(c *Config) { c.Policy = "bogus-policy"; c.ISOStorage = true }, ""},
		{func(c *Config) { c.L2CPrefetcher = "spp"; c.L1IPrefetcher = "fnl+mma"; c.Policy = "" }, ""},
	}
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	for i, tc := range cases {
		cfg := testConfig(PolicyDiscard)
		tc.set(&cfg)
		_, err := New(cfg)
		if got := errText(err); got != tc.wantErr {
			t.Errorf("case %d: New error %q, want %q", i, got, tc.wantErr)
		}
		if got := errText(cfg.CheckNames()); got != tc.wantErr {
			t.Errorf("case %d: CheckNames error %q, want %q", i, got, tc.wantErr)
		}
	}
}

func TestMultiCoreMix(t *testing.T) {
	mc := DefaultMultiConfig()
	mc.Cores = 2
	mc.PerCore.WarmupInstrs = 3_000
	mc.PerCore.SimInstrs = 8_000
	mc.PerCore.Core.EpochInstrs = 2_000
	mc.PerCore.Policy = PolicyDripper
	ms, err := NewMulti(mc)
	if err != nil {
		t.Fatal(err)
	}
	mix := []trace.Workload{streamWorkload(t), pagehopWorkload(t)}
	runs, err := ms.RunMix(context.Background(), mix)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("runs = %d", len(runs))
	}
	for i, r := range runs {
		if r.Core.Instructions < mc.PerCore.SimInstrs {
			t.Errorf("core %d retired %d < budget %d", i, r.Core.Instructions, mc.PerCore.SimInstrs)
		}
		if r.IPC() <= 0 {
			t.Errorf("core %d IPC %g", i, r.IPC())
		}
	}
	if ms.DRAM.Stats.Reads == 0 {
		t.Fatal("shared DRAM saw no traffic")
	}
}

func TestMultiCoreMixValidation(t *testing.T) {
	mc := DefaultMultiConfig()
	mc.Cores = 2
	ms, err := NewMulti(mc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ms.RunMix(context.Background(), []trace.Workload{streamWorkload(t)}); err == nil {
		t.Fatal("wrong mix size accepted")
	}
	if _, err := NewMulti(MultiConfig{Cores: 0}); err == nil {
		t.Fatal("zero cores accepted")
	}
}

func TestSharedLLCContention(t *testing.T) {
	// Two cores sharing the LLC should each see lower IPC than alone.
	w := streamWorkload(t)
	solo := runOne(t, testConfig(PolicyDiscard), w)

	mc := DefaultMultiConfig()
	mc.Cores = 2
	mc.PerCore = testConfig(PolicyDiscard)
	mc.PerCore.Core.ReplayOnEnd = true
	ms, err := NewMulti(mc)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := ms.RunMix(context.Background(), []trace.Workload{w, w})
	if err != nil {
		t.Fatal(err)
	}
	// Contention must not *increase* IPC beyond isolation (allowing a tiny
	// tolerance for interleaving noise).
	for i, r := range runs {
		if r.IPC() > solo.IPC()*1.1 {
			t.Errorf("core %d IPC %.3f exceeds isolation %.3f", i, r.IPC(), solo.IPC())
		}
	}
}
