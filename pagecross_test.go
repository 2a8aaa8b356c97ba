package pagecross

import (
	"context"
	"testing"
)

func TestFacadeRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WarmupInstrs = 5_000
	cfg.SimInstrs = 10_000
	cfg.Policy = PolicyDripper
	w, ok := WorkloadByName("spec.stream_s00")
	if !ok {
		t.Fatal("workload missing")
	}
	r, err := Run(context.Background(), cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if r.IPC() <= 0 {
		t.Fatalf("IPC %g", r.IPC())
	}
}

func TestFacadeWorkloadSets(t *testing.T) {
	if len(SeenWorkloads()) != 218 || len(UnseenWorkloads()) != 178 {
		t.Fatal("workload set sizes wrong")
	}
	if len(NonIntensiveWorkloads()) == 0 {
		t.Fatal("non-intensive set empty")
	}
	if m := Mixes(5, 4); len(m) != 5 || len(m[0]) != 4 {
		t.Fatal("mixes shape wrong")
	}
}

func TestFacadeFilter(t *testing.T) {
	f, err := NewFilter(DripperConfig("berti"))
	if err != nil {
		t.Fatal(err)
	}
	if f.StorageKB() > 1.5 {
		t.Fatalf("storage %g KB", f.StorageKB())
	}
	if len(ProgramFeatures()) < 19 || len(SystemFeatures()) != 6 {
		t.Fatal("feature registry wrong")
	}
	issue, tag := f.Decide(FilterInput{PC: 1, VA: 2, Delta: 3})
	_ = issue
	f.RecordDiscard(100, tag)
	f.OnDemandMiss(100)
	if f.FalseNegativeHits != 1 {
		t.Fatal("vUB plumbing broken through facade")
	}
}

func TestFacadeStats(t *testing.T) {
	g, err := Geomean([]float64{1, 4})
	if err != nil || g != 2 {
		t.Fatalf("geomean %g %v", g, err)
	}
	wg, err := WeightedGeomean([]float64{2, 8}, []float64{1, 0})
	if err != nil || wg != 2 {
		t.Fatalf("weighted geomean %g %v", wg, err)
	}
}

func TestFacadeMultiCore(t *testing.T) {
	mc := DefaultMultiConfig()
	mc.Cores = 2
	mc.PerCore.WarmupInstrs = 2_000
	mc.PerCore.SimInstrs = 5_000
	mix := Mixes(1, 2)[0]
	runs, err := RunMix(context.Background(), mc, mix)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || runs[0].IPC() <= 0 {
		t.Fatal("multi-core facade broken")
	}
}

func TestFacadeSelection(t *testing.T) {
	eval := func(cfg FilterConfig) (float64, error) {
		if len(cfg.ProgramFeatures) > 0 && cfg.ProgramFeatures[0] == "Delta" {
			return 1.05, nil
		}
		return 1.0, nil
	}
	res, err := SelectFeatures(DripperConfig("berti"), []string{"PC", "Delta"}, 0.003, eval)
	if err != nil {
		t.Fatal(err)
	}
	if res.Selected[0] != "Delta" {
		t.Fatalf("selected %v", res.Selected)
	}
}

func TestFacadeCampaign(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WarmupInstrs = 2_000
	cfg.SimInstrs = 5_000
	w, ok := WorkloadByName("spec.stream_s00")
	if !ok {
		t.Fatal("workload missing")
	}
	base := cfg
	base.Policy = PolicyDiscard
	drip := cfg
	drip.Policy = PolicyDripper

	baseKey, err := CacheKeyOf(base, w)
	if err != nil {
		t.Fatal(err)
	}
	dripKey, err := CacheKeyOf(drip, w)
	if err != nil {
		t.Fatal(err)
	}
	if baseKey == dripKey {
		t.Fatal("distinct policies share a cache key")
	}

	spec := CampaignSpec{Name: "facade", Cells: []CampaignCell{
		{ID: "base", Config: base, Workload: w},
		{ID: "drip", Config: drip, Workload: w},
	}}
	dir := t.TempDir()
	opts := []CampaignOption{
		WithCache(dir),
		WithWorkers(2),
	}

	rep, err := RunCampaign(context.Background(), spec, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() || rep.Simulated != 2 {
		t.Fatalf("cold campaign: complete=%v simulated=%d failures=%v",
			rep.Complete(), rep.Simulated, rep.Failures)
	}
	sp := Speedup(rep.Runs["drip"], rep.Runs["base"])
	if sp <= 0 {
		t.Fatalf("Speedup = %g", sp)
	}

	// Warm re-run: the content-addressed cache must answer every cell.
	rep2, err := RunCampaign(context.Background(), spec, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Simulated != 0 || rep2.CacheHits != rep2.Total {
		t.Fatalf("warm campaign still simulated: %+v", rep2)
	}
	if got := Speedup(rep2.Runs["drip"], rep2.Runs["base"]); got != sp {
		t.Fatalf("cached speedup %g != simulated speedup %g", got, sp)
	}
}
