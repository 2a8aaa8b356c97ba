// Execution backends: where a campaign's cells actually run. The engine
// (engine.go) owns cell scheduling, the content-addressed cache (which is
// also the checkpoint) and the retry/failure ledger, and delegates only "run
// this cell once" to a Backend. Local() executes cells in-process on the
// calling goroutine; the engine's worker pool provides the concurrency.
// WithBackend swaps in another implementation, such as a wrapper that
// times each cell.
//
// The engine publishes cell lifecycle events through the typed Event
// stream (WithEvents); the sink serialises them into one totally ordered
// stream.
package campaign

import (
	"context"
	"sync"

	"repro/internal/stats"
)

// Backend executes single cell attempts for the campaign engine. The
// engine calls ExecuteCell concurrently from its worker pool (bounded by
// Exec.Workers); implementations must be safe for concurrent use.
type Backend interface {
	// ExecuteCell runs one attempt of cell c and returns one *stats.Run
	// per core (length 1 for single-core cells). ctx carries the
	// campaign's cancellation and the per-cell RunTimeout; emit publishes
	// to the campaign's event stream. Errors that advertise Retryable()
	// true are retried by the engine up to Exec.Retries; everything else
	// lands in the failure ledger.
	ExecuteCell(ctx context.Context, c *Cell, emit EventSink) ([]*stats.Run, error)
}

// EventKind names one campaign event type.
type EventKind string

// The event kinds: the lifecycle of one cell.
const (
	// EventCellStarted: a cell's first simulation attempt is beginning
	// (the cache missed).
	EventCellStarted EventKind = "cell-started"
	// EventCellCached: the cell was served from the result cache without
	// simulation.
	EventCellCached EventKind = "cell-cached"
	// EventCellRetried: an attempt failed retryably; Attempt is the
	// number of the attempt about to start.
	EventCellRetried EventKind = "cell-retried"
	// EventCellCompleted / EventCellFailed: the cell retired, with a
	// result / into the failure ledger (Err carries the final error).
	EventCellCompleted EventKind = "cell-completed"
	EventCellFailed    EventKind = "cell-failed"
)

// Event is one entry of a campaign's typed event stream. Seq is assigned
// by the aggregator: a strictly increasing sequence over the whole
// campaign, so consumers see one total order regardless of which worker
// produced the event.
type Event struct {
	Seq     uint64    `json:"seq"`
	Kind    EventKind `json:"kind"`
	Cell    string    `json:"cell,omitempty"`
	Attempt int       `json:"attempt,omitempty"`
	Err     string    `json:"error,omitempty"`
}

// EventSink receives events from the engine and from backends. The sink
// passed to Backend.ExecuteCell is always non-nil and safe for concurrent
// use; it assigns Seq and forwards to the campaign's OnEvent callback.
type EventSink func(Event)

// eventSink is the aggregator behind EventSink: one mutex serialises
// delivery (events are rare next to simulation work) and numbers the
// stream.
type eventSink struct {
	mu  sync.Mutex
	seq uint64
	fn  func(Event)
}

// emit numbers and delivers one event; a nil sink or callback drops it.
// Delivery happens under the sink mutex so the callback observes events in
// exactly Seq order — the callback must not block on campaign progress.
func (s *eventSink) emit(ev Event) {
	if s == nil || s.fn == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	ev.Seq = s.seq
	s.fn(ev)
}
