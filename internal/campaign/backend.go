// Execution backends: where a campaign's cells actually run. The engine
// (engine.go) owns everything that must be backend-independent — DAG
// scheduling, the content-addressed cache, the resume manifest, the
// retry/failure ledger — and delegates only the question "run this cell
// once, somewhere" to a Backend. Two implementations ship:
//
//   - Local() executes cells in-process on the calling goroutine (the
//     engine's work-stealing pool provides the concurrency). This is the
//     default and is byte-identical to the pre-backend engine.
//   - NewProcBackend forks worker subprocesses and ships cells to them as
//     length-prefixed JSON over stdio; a crashed worker surfaces as a
//     retryable error, so the engine's recover/retry ledger re-runs the
//     cell on another shard.
//
// All backends feed one aggregator through the typed Event stream
// (WithEvents): the engine publishes cell lifecycle events, backends
// publish worker lifecycle events, and the sink serialises both into one
// totally ordered stream.
package campaign

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/stats"
)

// Backend executes single cell attempts for the campaign engine. The
// engine calls ExecuteCell concurrently from its worker pool (bounded by
// Exec.Workers); implementations must be safe for concurrent use. A
// backend's lifetime belongs to its creator — the engine never calls
// Close, so one backend (and its worker fleet) can serve many campaigns.
type Backend interface {
	// ExecuteCell runs one attempt of cell c and returns one *stats.Run
	// per core (length 1 for single-core cells). ctx carries the
	// campaign's cancellation and the per-cell RunTimeout. Worker
	// lifecycle events (joined, died) are published to emit. Errors that
	// advertise Retryable() true (a crashed worker) are retried by the
	// engine up to Exec.Retries; everything else lands in the failure
	// ledger.
	ExecuteCell(ctx context.Context, c *Cell, emit EventSink) ([]*stats.Run, error)
	// Close tears down whatever the backend spawned (subprocesses).
	// Idempotent; ExecuteCell after Close errors.
	Close() error
}

// EventKind names one campaign event type.
type EventKind string

// The event kinds: cell lifecycle from the engine, worker lifecycle from
// the backend.
const (
	// EventCellStarted: a cell's first simulation attempt is beginning
	// (cache and manifest both missed).
	EventCellStarted EventKind = "cell-started"
	// EventCellCached / EventCellResumed: the cell was served without
	// simulation, from the result cache / the resume manifest.
	EventCellCached  EventKind = "cell-cached"
	EventCellResumed EventKind = "cell-resumed"
	// EventCellRetried: an attempt failed retryably; Attempt is the
	// number of the attempt about to start.
	EventCellRetried EventKind = "cell-retried"
	// EventCellCompleted / EventCellFailed: the cell retired, with a
	// result / into the failure ledger (Err carries the final error).
	EventCellCompleted EventKind = "cell-completed"
	EventCellFailed    EventKind = "cell-failed"
	// EventWorkerJoined / EventWorkerDied: an execution worker (a
	// subprocess) became available / was lost.
	EventWorkerJoined EventKind = "worker-joined"
	EventWorkerDied   EventKind = "worker-died"
)

// Event is one entry of a campaign's typed event stream. Seq is assigned
// by the aggregator: a strictly increasing sequence over the whole
// campaign, so consumers see one total order regardless of which worker
// produced the event.
type Event struct {
	Seq     uint64    `json:"seq"`
	Kind    EventKind `json:"kind"`
	Cell    string    `json:"cell,omitempty"`
	Worker  string    `json:"worker,omitempty"`
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

// backendError is a typed execution-layer failure with an explicit
// retryability verdict — the error the proc backend returns for
// transport-level failures (sim.Retryable sees the Retryable method
// through any wrapping).
type backendError struct {
	msg       string
	retryable bool
}

func (e *backendError) Error() string   { return e.msg }
func (e *backendError) Retryable() bool { return e.retryable }

// fatalErrorf builds a non-retryable backend error.
func fatalErrorf(format string, args ...any) error {
	return &backendError{msg: fmt.Sprintf(format, args...), retryable: false}
}

// ParseBackend resolves the CLI backend syntax shared by cmd/pgcsim,
// cmd/experiments and cmd/pgcd:
//
//	local            in-process pool (the default; returns nil)
//	procs            one worker subprocess per engine worker
//	procs:N          N worker subprocesses
//
// workers is the engine pool width the caller will run with (0 = NumCPU);
// "procs" without a count sizes its fleet to match. A nil Backend with a
// nil error means "local": run in-process.
func ParseBackend(spec string, workers int) (Backend, error) {
	switch {
	case spec == "" || spec == "local":
		return nil, nil
	case spec == "procs":
		return NewProcBackend(ProcConfig{Workers: workers}), nil
	case strings.HasPrefix(spec, "procs:"):
		n, err := strconv.Atoi(strings.TrimPrefix(spec, "procs:"))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("campaign: -backend procs:N needs a positive worker count, got %q", spec)
		}
		return NewProcBackend(ProcConfig{Workers: n}), nil
	default:
		return nil, fmt.Errorf("campaign: unknown backend %q (want local or procs[:N])", spec)
	}
}
