package core

import (
	"fmt"
	"sort"
)

// EvalFunc scores a candidate filter configuration; the selection harness
// maximises its return value. In the paper the metric is geomean IPC
// speedup over the 218 seen workloads (§III-D3).
type EvalFunc func(cfg Config) (float64, error)

// SelectionResult records the outcome of the greedy selection.
type SelectionResult struct {
	// Selected is the chosen feature set, in the order features were
	// adopted.
	Selected []string
	// Score is the evaluation of the final configuration.
	Score float64
	// SingleScores maps every candidate feature to its score in isolation,
	// sorted descending in Ranking.
	SingleScores map[string]float64
	Ranking      []string
}

// SelectFeatures runs the paper's offline feature-selection process
// (§III-D3): evaluate every feature in isolation, sort by score, then
// greedily add features that improve the score by more than minGain
// (the paper uses 0.3% geomean IPC, i.e. 0.003). Once the selection holds
// MaxProgramFeatures program (or MaxSystemFeatures system) features, further
// candidates of that kind are skipped unevaluated.
func SelectFeatures(baseCfg Config, candidates []string, minGain float64, eval EvalFunc) (*SelectionResult, error) {
	if len(candidates) == 0 {
		return nil, fmt.Errorf("core: no candidate features")
	}
	res := &SelectionResult{SingleScores: make(map[string]float64, len(candidates))}

	// Round 1: single-feature filters.
	for _, name := range candidates {
		cfg := withFeatures(baseCfg, []string{name})
		score, err := eval(cfg)
		if err != nil {
			return nil, fmt.Errorf("core: evaluating single feature %q: %w", name, err)
		}
		res.SingleScores[name] = score
	}
	res.Ranking = append([]string(nil), candidates...)
	sort.Slice(res.Ranking, func(i, j int) bool {
		return res.SingleScores[res.Ranking[i]] > res.SingleScores[res.Ranking[j]]
	})

	// Round 2: greedy accumulation starting from the best single feature.
	res.Selected = []string{res.Ranking[0]}
	best := res.SingleScores[res.Ranking[0]]
	for _, name := range res.Ranking[1:] {
		cfg := withFeatures(baseCfg, append(append([]string(nil), res.Selected...), name))
		if len(cfg.ProgramFeatures) > MaxProgramFeatures || len(cfg.SystemFeatures) > MaxSystemFeatures {
			continue
		}
		score, err := eval(cfg)
		if err != nil {
			return nil, fmt.Errorf("core: evaluating %v: %w", cfg.ProgramFeatures, err)
		}
		if score > best+minGain {
			res.Selected = append(res.Selected, name)
			best = score
		}
	}
	res.Score = best
	return res, nil
}

// withFeatures splits a mixed feature-name list into program and system
// features on a copy of base.
func withFeatures(base Config, names []string) Config {
	cfg := base
	cfg.ProgramFeatures = nil
	cfg.SystemFeatures = nil
	for _, n := range names {
		if _, err := LookupSystemFeature(n); err == nil {
			cfg.SystemFeatures = append(cfg.SystemFeatures, n)
		} else {
			cfg.ProgramFeatures = append(cfg.ProgramFeatures, n)
		}
	}
	return cfg
}
