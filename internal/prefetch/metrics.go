package prefetch

import "repro/internal/metrics"

// EmitMetrics implements metrics.Source: the FDP throttle's aggressiveness
// state and interval feedback.
func (t *Throttle) EmitMetrics(emit metrics.Emit) {
	const g = metrics.KindGauge
	emit("level", g, uint64(t.level))
	emit("accesses", metrics.KindCounter, t.accesses)
	emit("interval_useful", g, t.useful)
	emit("interval_useless", g, t.useless)
}
