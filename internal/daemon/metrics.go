package daemon

import (
	"repro/internal/campaign"
	"repro/internal/metrics"
)

// daemonMetrics is the daemon's control-plane instrumentation, registered
// in one internal/metrics registry and served (snapshot or stream) by the
// /metricz endpoint. All counters are SyncCounters — unlike a simulated
// system, the daemon mutates its registry from many goroutines. Gauges are
// one view source over live server state, sampled at snapshot time.
type daemonMetrics struct {
	reg *metrics.Registry

	submitted   *metrics.SyncCounter
	completed   *metrics.SyncCounter
	failed      *metrics.SyncCounter
	canceled    *metrics.SyncCounter
	interrupted *metrics.SyncCounter
	recovered   *metrics.SyncCounter
	warmServed  *metrics.SyncCounter

	rejRate     *metrics.SyncCounter
	rejQuota    *metrics.SyncCounter
	rejQueue    *metrics.SyncCounter
	rejDraining *metrics.SyncCounter
	rejInvalid  *metrics.SyncCounter

	httpRequests *metrics.SyncCounter

	cellsSimulated *metrics.SyncCounter
	cellsCached    *metrics.SyncCounter
	cellsFailed    *metrics.SyncCounter

	// Fed by the campaign event stream: cell retry attempts.
	cellsRetried *metrics.SyncCounter
}

// newDaemonMetrics registers every daemon metric. Registration happens once
// at server construction, before any concurrent access — the registry is
// read-only from then on, which is its concurrency contract.
func newDaemonMetrics(s *Server) *daemonMetrics {
	reg := metrics.NewRegistry()
	m := &daemonMetrics{
		reg:         reg,
		submitted:   reg.SyncCounter("daemon.jobs.submitted"),
		completed:   reg.SyncCounter("daemon.jobs.completed"),
		failed:      reg.SyncCounter("daemon.jobs.failed"),
		canceled:    reg.SyncCounter("daemon.jobs.canceled"),
		interrupted: reg.SyncCounter("daemon.jobs.interrupted"),
		recovered:   reg.SyncCounter("daemon.jobs.recovered"),
		warmServed:  reg.SyncCounter("daemon.jobs.warm_served"),

		rejRate:     reg.SyncCounter("daemon.rejected.rate_limited"),
		rejQuota:    reg.SyncCounter("daemon.rejected.quota"),
		rejQueue:    reg.SyncCounter("daemon.rejected.queue_full"),
		rejDraining: reg.SyncCounter("daemon.rejected.draining"),
		rejInvalid:  reg.SyncCounter("daemon.rejected.invalid"),

		httpRequests: reg.SyncCounter("daemon.http.requests"),

		cellsSimulated: reg.SyncCounter("daemon.cells.simulated"),
		cellsCached:    reg.SyncCounter("daemon.cells.cache_hits"),
		cellsFailed:    reg.SyncCounter("daemon.cells.failed"),

		cellsRetried: reg.SyncCounter("daemon.cells.retried"),
	}
	reg.Source("daemon", metrics.SourceFunc(s.emitGauges))
	return m
}

// emitGauges reports the live server state, sampled at snapshot time.
func (s *Server) emitGauges(emit metrics.Emit) {
	const g = metrics.KindGauge
	var draining uint64
	if s.isDraining() {
		draining = 1
	}
	emit("queue.depth", g, uint64(s.queueDepth()))
	emit("jobs.running", g, uint64(s.runningCount()))
	emit("draining", g, draining)
	emit("ratelimit.clients", g, uint64(s.limiter.clients()))
}

// addReport folds one campaign report's cell accounting into the counters.
func (m *daemonMetrics) addReport(simulated, cached, failed int) {
	m.cellsSimulated.Add(uint64(simulated))
	m.cellsCached.Add(uint64(cached))
	m.cellsFailed.Add(uint64(failed))
}

// onEvent folds one campaign event into the counters. Installed on every
// job's engine via WithEvents; the stream is already serialised per
// campaign and the counters are sync, so concurrent jobs compose.
func (m *daemonMetrics) onEvent(ev campaign.Event) {
	if ev.Kind == campaign.EventCellRetried {
		m.cellsRetried.Inc()
	}
}
