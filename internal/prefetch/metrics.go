package prefetch

import "repro/internal/metrics"

// MetricSource is implemented by engines that export internal state into
// the unified metrics registry. The simulator type-asserts its configured
// engines against it at registration time, so engines without interesting
// state need no stub.
type MetricSource interface {
	RegisterMetrics(r *metrics.Registry, prefix string)
}

// RegisterMetrics exports the FDP throttle's aggressiveness state and
// interval feedback under prefix ("prefetch.l1d.fdp").
func (t *Throttle) RegisterMetrics(r *metrics.Registry, prefix string) {
	r.Source(prefix, t)
	if src, ok := t.Engine.(MetricSource); ok {
		src.RegisterMetrics(r, prefix+".engine")
	}
}

// EmitMetrics implements metrics.Source.
func (t *Throttle) EmitMetrics(emit metrics.Emit) {
	const g = metrics.KindGauge
	emit("level", g, uint64(t.level))
	emit("accesses", metrics.KindCounter, t.accesses)
	emit("interval_useful", g, t.useful)
	emit("interval_useless", g, t.useless)
}
