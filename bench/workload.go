package main

import (
	"fmt"
	"runtime"

	"repro/internal/sim"
	"repro/internal/trace"
)

// workloadNames lists the benchmark's workloads; README.md says why each
// exists and which layers it stresses.
var workloadNames = []string{"detail_pgc", "detail_walk", "sampled", "campaign"}

// scale sizes a run. full is the benchmark; smoke shrinks every budget so
// the tests can drive each workload end to end in seconds.
type scale struct {
	detailWarmup, detailInstrs     uint64
	sampledWarmup, sampledInstrs   uint64
	campaignWarmup, campaignInstrs uint64
	campaignWorkloads              int
	fidelityWarmup, fidelityInstrs uint64
	setupPerOp                     int
	coldRuns, minWarmRuns          int
	probeSteps                     int
}

var scales = map[string]scale{
	"full": {
		detailWarmup: 200_000, detailInstrs: 1_000_000,
		sampledWarmup: 200_000, sampledInstrs: 10_000_000,
		// 80 cells of 100k instructions: a cold run takes ~3s on two
		// workers, so five of them and the warm runs fit one run, and each
		// cell's median over five cold runs ignores two disturbed ones.
		campaignWarmup: 40_000, campaignInstrs: 60_000, campaignWorkloads: 20,
		// The golden table's setting (internal/sim/sampled_test.go).
		fidelityWarmup: 50_000, fidelityInstrs: 1_000_000,
		setupPerOp: 12,
		coldRuns:   5, minWarmRuns: 300,
		probeSteps: 8 << 20,
	},
	"smoke": {
		detailWarmup: 5_000, detailInstrs: 20_000,
		sampledWarmup: 5_000, sampledInstrs: 200_000,
		campaignWarmup: 2_000, campaignInstrs: 5_000, campaignWorkloads: 2,
		fidelityWarmup: 5_000, fidelityInstrs: 50_000,
		setupPerOp: 1,
		coldRuns:   1, minWarmRuns: 3,
		probeSteps: 1 << 16,
	},
}

// Registry instances per workload. They are the golden-table workloads, so
// seed 0 reproduces numbers the repository already pins.
var (
	pgcInstances  = []string{"spec.stream_s00", "parsec.parsec_u00", "gap.graph_s00", "gkb5.phased_u00", "qmm_int.qmm_u00"}
	walkInstances = []string{"spec.chase_u00", "spec.chase_s00", "spec.pagehop_s00", "spec.pagehop_u00"}
	// fidelityInstances are the rows of
	// internal/sim/testdata/golden/sampled_accuracy.txt, one per family.
	fidelityInstances = []string{
		"spec.stream_s00", "spec.pagehop_s00", "gap.graph_s00", "spec.chase_u00",
		"parsec.parsec_u00", "gkb5.phased_u00", "qmm_int.qmm_u00", "spec.hot_00",
	}
	campaignPolicies = []sim.PolicyKind{sim.PolicyDiscard, sim.PolicyPermit, sim.PolicyDripper, sim.PolicyPPF}
)

// cell is one operation's input: a configuration run over a workload.
type cell struct {
	id  string
	cfg sim.Config
	w   trace.Workload
	// instrs counts the instructions the cell simulates or, sampled, covers:
	// warm-up plus budget.
	instrs uint64
}

func newCell(id string, w trace.Workload, policy sim.PolicyKind, warmup, instrs uint64, sampled bool) cell {
	cfg := sim.DefaultConfig()
	cfg.Policy = policy
	cfg.WarmupInstrs = warmup
	cfg.SimInstrs = instrs
	cfg.Sample = sim.SampleConfig{Enabled: sampled}
	return cell{id: id, cfg: cfg, w: w, instrs: warmup + instrs}
}

// reseed returns a workload's input for a seed. Seed 0 is the registry
// instance itself. Any other seed keeps the instance's family parameters
// (footprints, strides, phases) and draws a fresh generator seed: the
// instruction stream changes, the memory behaviour the workload was chosen
// for does not. Over ten seeds of detail_pgc, allocations per instruction
// spread 33% with fresh family parameters (trace.FamilyConfig) and 0.6% with
// fresh generator seeds; no bound the benchmark could hold covers the first.
func reseed(w trace.Workload, seed uint64) trace.Workload {
	if seed != 0 {
		w.Config.Seed = mix(seed, w.Name)
	}
	return w
}

// mix hashes a seed and a workload name into a generator seed.
func mix(seed uint64, name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	h ^= seed * 0x9E3779B97F4A7C15
	h ^= h >> 31
	h *= 0xBF58476D1CE4E5B9
	return h ^ h>>29
}

func instances(names []string, seed uint64) ([]trace.Workload, error) {
	out := make([]trace.Workload, len(names))
	for i, name := range names {
		w, ok := trace.ByName(name)
		if !ok {
			return nil, fmt.Errorf("workload %q is not in the registry", name)
		}
		out[i] = reseed(w, seed)
	}
	return out, nil
}

// cellsFor builds the operations of a workload.
func cellsFor(workload string, seed uint64, sc scale) ([]cell, error) {
	var cells []cell
	switch workload {
	case "detail_pgc", "detail_walk":
		names, policy := pgcInstances, sim.PolicyDripper
		if workload == "detail_walk" {
			names, policy = walkInstances, sim.PolicyDiscard
		}
		ws, err := instances(names, seed)
		if err != nil {
			return nil, err
		}
		for _, w := range ws {
			cells = append(cells, newCell(w.Name, w, policy, sc.detailWarmup, sc.detailInstrs, false))
		}
	case "sampled":
		ws, err := instances(fidelityInstances, seed)
		if err != nil {
			return nil, err
		}
		for _, w := range ws {
			cells = append(cells, newCell(w.Name, w, sim.PolicyDripper, sc.sampledWarmup, sc.sampledInstrs, true))
		}
	case "campaign":
		ws := trace.MotivationSet()
		if len(ws) > sc.campaignWorkloads {
			ws = ws[:sc.campaignWorkloads]
		}
		for _, p := range campaignPolicies {
			for _, w := range ws {
				w = reseed(w, seed)
				cells = append(cells, newCell(string(p)+"/"+w.Name, w, p, sc.campaignWarmup, sc.campaignInstrs, false))
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	return cells, nil
}

// fidelityCells are the sampled workload's reference pairs at the golden
// table's setting: full detail and default auto-period sampling per family.
func fidelityCells(seed uint64, sc scale) (full, sampled []cell, err error) {
	ws, err := instances(fidelityInstances, seed)
	if err != nil {
		return nil, nil, err
	}
	for _, w := range ws {
		full = append(full, newCell(w.Name, w, sim.PolicyDripper, sc.fidelityWarmup, sc.fidelityInstrs, false))
		sampled = append(sampled, newCell(w.Name, w, sim.PolicyDripper, sc.fidelityWarmup, sc.fidelityInstrs, true))
	}
	return full, sampled, nil
}

// workers is the campaign's worker count and the benchmark's GOMAXPROCS:
// two, the host the benchmark was defined on, or fewer where there are
// fewer CPUs.
func workers() int { return min(2, runtime.NumCPU()) }
