// Package pagecross is a from-scratch reproduction of "To Cross, or Not to
// Cross Pages for Prefetching?" (HPCA 2025): the MOKA framework for
// building Page-Cross Filters, the DRIPPER filter prototype, the three L1D
// prefetchers the paper evaluates (Berti, IPCP, BOP), and the trace-driven
// out-of-order simulator (caches, TLBs, page-table walker, DRAM) the
// evaluation runs on.
//
// # Quick start
//
//	cfg := pagecross.DefaultConfig()
//	cfg.L1DPrefetcher = "berti"
//	cfg.Policy = pagecross.PolicyDripper
//	w, _ := pagecross.WorkloadByName("gap.graph_s00")
//	run, err := pagecross.Run(context.Background(), cfg, w)
//	fmt.Println(run.IPC())
//
// Whole evaluations run as campaigns — lists of cached simulation cells.
// The cache is also the checkpoint: re-running an interrupted campaign
// with the same cache simulates only the cells that had not completed.
//
//	spec := pagecross.CampaignSpec{Name: "sweep", Cells: cells}
//	rep, err := pagecross.RunCampaign(ctx, spec, pagecross.WithCache(".cache"))
//
// # Layers
//
//   - The simulator: Config/Run/RunMix simulate single- and multi-core
//     systems over synthetic workloads (SeenWorkloads, UnseenWorkloads);
//     RunCampaign executes whole cell lists with a content-addressed result
//     cache that doubles as the checkpoint.
//   - The paper's mechanism: FilterConfig/NewFilter build MOKA filters from
//     program and system features; DripperConfig returns the Table II
//     prototypes; SelectFeatures reruns the offline selection of §III-D3.
//   - The evaluation: the experiments subcommands of cmd/experiments and
//     the benchmarks in bench_test.go regenerate every table and figure.
package pagecross

import (
	"context"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Config describes a simulated system (core, caches, TLBs, DRAM,
// prefetchers and page-cross policy).
type Config = sim.Config

// MultiConfig describes a multi-core system sharing LLC and DRAM.
type MultiConfig = sim.MultiConfig

// PolicyKind names a page-cross prefetching policy.
type PolicyKind = sim.PolicyKind

// The policies of §V-A.
const (
	PolicyPermit     = sim.PolicyPermit
	PolicyDiscard    = sim.PolicyDiscard
	PolicyDiscardPTW = sim.PolicyDiscardPTW
	PolicyDripper    = sim.PolicyDripper
	PolicyPPF        = sim.PolicyPPF
	PolicyPPFDthr    = sim.PolicyPPFDthr
	PolicyDripperSF  = sim.PolicyDripperSF
)

// Result aggregates one run's statistics (IPC, MPKIs, prefetch usefulness,
// page-walk counts).
type Result = stats.Run

// Workload is one named benchmark of the evaluation set.
type Workload = trace.Workload

// FilterConfig assembles a Page-Cross Filter from MOKA's feature bouquet.
type FilterConfig = core.Config

// Filter is an instantiated Page-Cross Filter.
type Filter = core.Filter

// FilterInput is the program context of one page-cross decision.
type FilterInput = core.Input

// SystemState is the per-epoch snapshot consumed by system features and the
// adaptive thresholding scheme.
type SystemState = core.SystemState

// DefaultConfig returns the paper's Table IV single-core system with Berti
// at the L1D and the Discard-PGC policy.
func DefaultConfig() Config { return sim.DefaultConfig() }

// DefaultMultiConfig returns the Table IV 8-core system.
func DefaultMultiConfig() MultiConfig { return sim.DefaultMultiConfig() }

// Run simulates one workload on a fresh system built from cfg: warmup for
// cfg.WarmupInstrs, then measure cfg.SimInstrs instructions. A cancelled or
// expired ctx tears the run down within the watchdog's poll grain; pass
// context.Background() when no cancellation is needed.
func Run(ctx context.Context, cfg Config, w Workload) (*Result, error) {
	return sim.RunWorkload(ctx, cfg, w)
}

// RunMix simulates a multi-programmed mix (workload i on core i) and
// returns one Result per core.
func RunMix(ctx context.Context, cfg MultiConfig, mix []Workload) ([]*Result, error) {
	ms, err := sim.NewMulti(cfg)
	if err != nil {
		return nil, err
	}
	return ms.RunMix(ctx, mix)
}

// CampaignSpec is an ordered list of simulation cells — a whole evaluation
// (figure matrix, ablation sweep, multi-core mix study) expressed as data.
type CampaignSpec = campaign.Spec

// CampaignCell is one entry of a campaign: a single- or multi-core
// simulation, independent of every other cell.
type CampaignCell = campaign.Cell

// CampaignReport is a campaign's outcome: results by cell ID, the failure
// ledger, and the simulated/cache-hit accounting.
type CampaignReport = campaign.Report

// CampaignFailure is one campaign failure-ledger entry.
type CampaignFailure = campaign.Failure

// CampaignOption configures RunCampaign.
type CampaignOption = campaign.Option

// CacheKey is the content address of a simulation cell: a SHA-256 over the
// canonical JSON of (CacheSchemaVersion, the full Config, and the
// workload's identity and generator parameters).
type CacheKey = campaign.Key

// CacheSchemaVersion is folded into every CacheKey; bumping it invalidates
// all previously cached results at once.
const CacheSchemaVersion = campaign.SchemaVersion

// RunCampaign executes a campaign spec on an in-process worker pool that
// takes ready cells in spec order, with per-cell fault isolation. With
// WithCache, every cell's result is synced to a content-addressed on-disk
// cache as the cell completes — a warm-cache re-run performs zero
// simulations, and an interrupted campaign re-run over the same cache
// picks up where it stopped. Config changes invalidate exactly the
// affected cells.
func RunCampaign(ctx context.Context, spec CampaignSpec, opts ...CampaignOption) (*CampaignReport, error) {
	return campaign.Run(ctx, spec, opts...)
}

// WithCache memoizes cell results in a content-addressed cache at dir.
func WithCache(dir string) CampaignOption { return campaign.WithCache(dir) }

// WithWorkers sets the campaign worker-pool width (default NumCPU).
func WithWorkers(n int) CampaignOption { return campaign.WithWorkers(n) }

// CampaignEvent is one entry of a campaign's typed event stream (cell
// started/cached/retried/completed/failed).
type CampaignEvent = campaign.Event

// WithEvents installs a callback receiving the campaign's totally ordered
// typed event stream.
func WithEvents(fn func(CampaignEvent)) CampaignOption { return campaign.WithEvents(fn) }

// CacheKeyOf returns the result-cache key RunCampaign would use for one
// single-core cell — campaign.ErrUncacheable for fault-injected configs.
func CacheKeyOf(cfg Config, w Workload) (CacheKey, error) { return campaign.KeyOf(cfg, w) }

// SeenWorkloads returns the 218 workloads used during DRIPPER's design.
func SeenWorkloads() []Workload { return trace.Seen() }

// UnseenWorkloads returns the 178 held-out workloads of §V-B8.
func UnseenWorkloads() []Workload { return trace.Unseen() }

// NonIntensiveWorkloads returns the non-memory-intensive set of §V-B9.
func NonIntensiveWorkloads() []Workload { return trace.NonIntensive() }

// WorkloadByName finds a workload in any set.
func WorkloadByName(name string) (Workload, bool) { return trace.ByName(name) }

// Mixes returns n deterministic multi-core mixes drawn from the seen set.
func Mixes(n, cores int) [][]Workload { return trace.Mixes(n, cores) }

// DripperConfig returns the Table II DRIPPER configuration for "berti",
// "ipcp" or "bop".
func DripperConfig(prefetcher string) FilterConfig {
	return core.DefaultDripperConfig(prefetcher)
}

// NewFilter instantiates a Page-Cross Filter from a MOKA configuration.
func NewFilter(cfg FilterConfig) (*Filter, error) { return core.NewFilter(cfg) }

// ProgramFeatures lists MOKA's program-feature bouquet (Table I).
func ProgramFeatures() []string { return core.ProgramFeatureNames() }

// SystemFeatures lists MOKA's system features (Table I).
func SystemFeatures() []string { return core.SystemFeatureNames() }

// SelectFeatures reruns the paper's offline greedy feature selection
// (§III-D3): eval scores a candidate configuration (geomean IPC speedup in
// the paper); minGain is the adoption threshold (the paper uses 0.003).
func SelectFeatures(base FilterConfig, candidates []string, minGain float64,
	eval func(FilterConfig) (float64, error)) (*core.SelectionResult, error) {
	return core.SelectFeatures(base, candidates, minGain, eval)
}

// Speedup returns run IPC / baseline IPC.
func Speedup(run, baseline *Result) float64 { return stats.Speedup(run, baseline) }

// Geomean returns the geometric mean of positive values.
func Geomean(xs []float64) (float64, error) { return stats.Geomean(xs) }

// WeightedGeomean returns the weighted geometric mean.
func WeightedGeomean(xs, weights []float64) (float64, error) {
	return stats.WeightedGeomean(xs, weights)
}
