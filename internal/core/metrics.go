package core

import "repro/internal/metrics"

// EmitMetrics implements metrics.Source: the filter's decision and
// training counters plus its live threshold state. FilterPolicy inherits
// it through embedding, so the simulator registers any filter-backed
// page-cross policy uniformly.
func (f *Filter) EmitMetrics(emit metrics.Emit) {
	const c, g = metrics.KindCounter, metrics.KindGauge
	emit("issued", c, f.Issued)
	emit("discarded", c, f.Discarded)
	emit("positive_trainings", c, f.PositiveTrainings)
	emit("negative_trainings", c, f.NegativeTrainings)
	emit("false_negative_hits", c, f.FalseNegativeHits)
	// The live Ta ladder position and kill switch; the threshold itself can
	// be negative, so the (always non-negative) ladder index is exported.
	var disabled uint64
	if f.disabled {
		disabled = 1
	}
	emit("threshold_level", g, uint64(f.level))
	emit("disabled", g, disabled)
}
