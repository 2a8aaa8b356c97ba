package daemon

import (
	"sync/atomic"

	"repro/internal/campaign"
	"repro/internal/metrics"
)

// daemonMetrics is the daemon's control-plane instrumentation, served
// (snapshot or stream) by the /metricz endpoint from one internal/metrics
// registry. Unlike a simulated system, the daemon counts from many
// goroutines, so its counters are atomic fields; one view source under
// "daemon" emits them and the gauges over live server state, sampled at
// snapshot time.
type daemonMetrics struct {
	reg *metrics.Registry

	submitted, completed, failed, canceled atomic.Uint64
	interrupted, recovered, warmServed     atomic.Uint64

	rejRate, rejQuota, rejQueue, rejDraining, rejInvalid atomic.Uint64

	httpRequests atomic.Uint64

	cellsSimulated, cellsCached, cellsFailed atomic.Uint64
	// Fed by the campaign event stream: cell retry attempts.
	cellsRetried atomic.Uint64
}

// newDaemonMetrics registers the daemon's view. Registration happens once
// at server construction, before any concurrent access — the registry is
// read-only from then on, which is its concurrency contract.
func newDaemonMetrics(s *Server) *daemonMetrics {
	m := &daemonMetrics{reg: metrics.NewRegistry()}
	m.reg.Source("daemon", metrics.SourceFunc(func(emit metrics.Emit) {
		m.emitCounters(emit)
		s.emitGauges(emit)
	}))
	return m
}

// emitCounters reports every counter under its name relative to "daemon".
func (m *daemonMetrics) emitCounters(emit metrics.Emit) {
	const c = metrics.KindCounter
	emit("jobs.submitted", c, m.submitted.Load())
	emit("jobs.completed", c, m.completed.Load())
	emit("jobs.failed", c, m.failed.Load())
	emit("jobs.canceled", c, m.canceled.Load())
	emit("jobs.interrupted", c, m.interrupted.Load())
	emit("jobs.recovered", c, m.recovered.Load())
	emit("jobs.warm_served", c, m.warmServed.Load())
	emit("rejected.rate_limited", c, m.rejRate.Load())
	emit("rejected.quota", c, m.rejQuota.Load())
	emit("rejected.queue_full", c, m.rejQueue.Load())
	emit("rejected.draining", c, m.rejDraining.Load())
	emit("rejected.invalid", c, m.rejInvalid.Load())
	emit("http.requests", c, m.httpRequests.Load())
	emit("cells.simulated", c, m.cellsSimulated.Load())
	emit("cells.cache_hits", c, m.cellsCached.Load())
	emit("cells.failed", c, m.cellsFailed.Load())
	emit("cells.retried", c, m.cellsRetried.Load())
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
// campaign and the counters are atomic, so concurrent jobs compose.
func (m *daemonMetrics) onEvent(ev campaign.Event) {
	if ev.Kind == campaign.EventCellRetried {
		m.cellsRetried.Add(1)
	}
}
