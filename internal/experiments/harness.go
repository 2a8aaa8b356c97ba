// Package experiments regenerates every table and figure of the paper's
// evaluation (§II-C and §V). Each experiment is a function that runs the
// required (workload × scenario) matrix on the simulator and returns a
// result struct that both prints the paper's rows/series and exposes the
// numbers for tests to assert the paper's qualitative shape.
//
// All experiments accept Options so the same code scales from unit-test
// budgets (a handful of workloads, tens of thousands of instructions) to
// full runs (the complete 218/178-workload sets).
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/campaign"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Options scales an experiment. Execution policy — worker-pool width,
// retry/timeout fault isolation, cache (which is also the checkpoint),
// execution backend — is expressed as campaign options in Campaign: the same
// option set pagecross.RunCampaign, the daemon's spec compiler and
// direct campaign callers use, so there is exactly one way to configure
// execution everywhere.
type Options struct {
	// Warmup and Instrs are the per-workload instruction budgets.
	Warmup, Instrs uint64
	// MaxWorkloads caps the workload set (evenly sampled to keep suite
	// diversity); 0 means the full set.
	MaxWorkloads int
	// Prefetcher is the L1D prefetcher under study (default "berti").
	Prefetcher string

	// Ctx, when non-nil, cancels the whole experiment: RunMatrix observes
	// it between and inside runs (at the simulator's watchdog poll grain).
	// nil means context.Background().
	Ctx context.Context
	// Campaign is the execution policy, as campaign options:
	// campaign.WithWorkers (concurrent simulations, default NumCPU),
	// WithRetries/WithRunTimeout (per-run fault isolation), WithCache
	// (content-addressed result cache; an interrupted experiment re-run
	// over the same cache simulates only what had not completed) and
	// WithEvents (typed execution event stream). Applied verbatim to every
	// matrix the experiment runs.
	Campaign []campaign.Option
	// Check enables the differential oracle and runtime invariant checker
	// for every run of the experiment (zero value = checks off). Violations
	// land in the campaign's failure ledger as *sim.RunError entries with
	// stage "check" (sim.CheckFailure extracts the violations).
	Check sim.CheckConfig
	// Sample enables interval-sampled simulation for every run of the
	// experiment (zero value = full detail). The sampling parameters are
	// part of each cell's content-address cache key, so sampled and full
	// results never alias in the campaign cache.
	Sample sim.SampleConfig
	// Configure, when non-nil, mutates each job's configuration after the
	// scenario has been applied — the hook fault-injection tests,
	// watchdog overrides and per-workload overrides use.
	Configure func(cfg *sim.Config, scenario string, wl trace.Workload)
}

func (o Options) withDefaults() Options {
	if o.Warmup == 0 {
		o.Warmup = 100_000
	}
	if o.Instrs == 0 {
		o.Instrs = 100_000
	}
	if o.Prefetcher == "" {
		o.Prefetcher = "berti"
	}
	return o
}

// baseConfig builds the simulator configuration for the options.
func baseConfig(o Options) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.WarmupInstrs = o.Warmup
	cfg.SimInstrs = o.Instrs
	cfg.L1DPrefetcher = o.Prefetcher
	cfg.Check = o.Check
	cfg.Sample = o.Sample
	return cfg
}

// ctx returns the experiment's context (Background when unset).
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// Sample returns up to n workloads evenly spaced across ws (preserving the
// suite ordering, hence diversity); n <= 0 returns ws unchanged.
func Sample(ws []trace.Workload, n int) []trace.Workload {
	if n <= 0 || n >= len(ws) {
		return ws
	}
	out := make([]trace.Workload, 0, n)
	step := float64(len(ws)) / float64(n)
	for i := 0; i < n; i++ {
		out = append(out, ws[int(float64(i)*step)])
	}
	return out
}

// Scenario is one column of an evaluation matrix: a named mutation of the
// base configuration.
type Scenario struct {
	Name      string
	Configure func(cfg *sim.Config)
}

// The standard §V-A scenarios.
func scenarioPermit() Scenario {
	return Scenario{"Permit PGC", func(c *sim.Config) { c.Policy = sim.PolicyPermit }}
}
func scenarioDiscard() Scenario {
	return Scenario{"Discard PGC", func(c *sim.Config) { c.Policy = sim.PolicyDiscard }}
}
func scenarioDiscardPTW() Scenario {
	return Scenario{"Discard PTW", func(c *sim.Config) { c.Policy = sim.PolicyDiscardPTW }}
}
func scenarioISO() Scenario {
	return Scenario{"ISO Storage", func(c *sim.Config) { c.ISOStorage = true }}
}
func scenarioPPF() Scenario {
	return Scenario{"PPF", func(c *sim.Config) { c.Policy = sim.PolicyPPF }}
}
func scenarioPPFDthr() Scenario {
	return Scenario{"PPF+Dthr", func(c *sim.Config) { c.Policy = sim.PolicyPPFDthr }}
}
func scenarioDripper() Scenario {
	return Scenario{"DRIPPER", func(c *sim.Config) { c.Policy = sim.PolicyDripper }}
}

// runPolicies runs the matrix most figures reduce: every workload under
// Discard PGC, Permit PGC and DRIPPER. nil wls means the sampled seen set,
// which it returns alongside the matrix.
func runPolicies(o Options, wls []trace.Workload) (Matrix, []trace.Workload, error) {
	if wls == nil {
		wls = Sample(trace.Seen(), o.MaxWorkloads)
	}
	m, err := RunMatrix(o, wls, []Scenario{scenarioDiscard(), scenarioPermit(), scenarioDripper()})
	return m, wls, err
}

// Matrix holds runs indexed by scenario name then workload name.
type Matrix map[string]map[string]*stats.Run

// RunMatrix simulates every workload under every scenario as one
// campaign: each (scenario, workload) pair becomes one independent cell
// on the campaign engine's worker pool, with the engine's fault
// isolation, retries and result cache as Options.Campaign configures them.
// It folds the campaign's failure ledger into one error but still returns
// the completed portion of the matrix alongside it, so callers can salvage
// partial campaigns. A cancelled Options.Ctx returns the ctx error.
func RunMatrix(o Options, wls []trace.Workload, scens []Scenario) (Matrix, error) {
	m, rep, err := runMatrix(o, wls, scens)
	if err == nil {
		err = rep.Err()
	}
	return m, err
}

// runMatrix is RunMatrix with the campaign's own report (failure ledger,
// cache accounting) alongside the matrix; rep is nil only when the
// campaign could not start.
func runMatrix(o Options, wls []trace.Workload, scens []Scenario) (Matrix, *campaign.Report, error) {
	o = o.withDefaults()
	spec := campaign.Spec{Name: "matrix", Cells: make([]campaign.Cell, 0, len(scens)*len(wls))}
	for _, sc := range scens {
		for _, wl := range wls {
			cfg := baseConfig(o)
			sc.Configure(&cfg)
			if o.Configure != nil {
				o.Configure(&cfg, sc.Name, wl)
			}
			spec.Cells = append(spec.Cells, campaign.Cell{
				ID: cellID(sc.Name, wl.Name), Config: cfg, Workload: wl,
			})
		}
	}
	m := Matrix{}
	rep, err := campaign.Run(o.ctx(), spec, o.Campaign...)
	if rep == nil {
		return m, nil, err
	}
	for id, run := range rep.Runs {
		scen, wl := splitCellID(id)
		if m[scen] == nil {
			m[scen] = map[string]*stats.Run{}
		}
		m[scen][wl] = run
	}
	return m, rep, err
}

// cellID names the campaign cell for one (scenario, workload) pair.
// Workload names never contain '/', so splitCellID recovers the pair by
// splitting at the last separator even if a scenario name contains one.
func cellID(scenario, workload string) string { return scenario + "/" + workload }

func splitCellID(id string) (scenario, workload string) {
	i := strings.LastIndex(id, "/")
	if i < 0 {
		return id, id
	}
	return id[:i], id[i+1:]
}

// Speedups returns the per-workload IPC speedups of scenario over base,
// ordered like wls, along with the matching weights. Any missing pair is an
// error naming every missing workload, so published numbers never come
// from a partial matrix.
func (m Matrix) Speedups(scen, base string, wls []trace.Workload) (sp, weights []float64, err error) {
	s, b := m[scen], m[base]
	if s == nil || b == nil {
		return nil, nil, fmt.Errorf("experiments: scenario %q or %q missing", scen, base)
	}
	var missing []string
	for _, w := range wls {
		rs, rb := s[w.Name], b[w.Name]
		if rs == nil || rb == nil {
			missing = append(missing, w.Name)
			continue
		}
		sp = append(sp, stats.Speedup(rs, rb))
		weights = append(weights, w.Weight)
	}
	if len(missing) > 0 {
		return nil, nil, fmt.Errorf("experiments: %s vs %s: %d run(s) missing: %s",
			scen, base, len(missing), strings.Join(missing, ", "))
	}
	return sp, weights, nil
}

// Geomean returns the weighted geomean speedup of scen over base,
// requiring a complete matrix.
func (m Matrix) Geomean(scen, base string, wls []trace.Workload) (float64, error) {
	sp, w, err := m.Speedups(scen, base, wls)
	if err != nil {
		return 0, err
	}
	return stats.WeightedGeomean(sp, w)
}

// bySuite groups workloads by suite name, sorted.
func bySuite(wls []trace.Workload) (suites []string, groups map[string][]trace.Workload) {
	groups = map[string][]trace.Workload{}
	for _, w := range wls {
		groups[w.Suite] = append(groups[w.Suite], w)
	}
	for s := range groups {
		suites = append(suites, s)
	}
	sort.Strings(suites)
	return suites, groups
}

// sortedCopy returns xs ascending without mutating the input.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// mean returns the arithmetic mean of xs, or 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// pct formats a speedup as a percentage gain.
func pct(speedup float64) string {
	return fmt.Sprintf("%+.2f%%", (speedup-1)*100)
}
