package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Exec is the execution policy of a campaign: worker-pool width, the
// retry/timeout fault-isolation knobs, and the result cache, which is also
// the campaign's checkpoint. The zero value runs with NumCPU workers, no
// retries and no cache.
type Exec struct {
	// Workers is the number of concurrent simulation workers (default
	// NumCPU).
	Workers int
	// Retries is how many times a retryable failure (sim.Retryable) is
	// retried before landing in the failure ledger; 0 disables retry.
	Retries int
	// RetryBackoff is the base backoff between retries (multiplied by the
	// attempt number); 0 retries immediately.
	RetryBackoff time.Duration
	// RunTimeout, when non-zero, bounds each individual cell's wall-clock
	// time; an expired cell is a ledgered failure, not a campaign abort.
	RunTimeout time.Duration
	// CacheDir, when non-empty, memoizes every cacheable cell in a
	// content-addressed result cache rooted there. Each result is synced
	// to disk as its cell completes, so the cache is also the checkpoint:
	// an interrupted campaign re-run with the same CacheDir simulates only
	// the cells that had not completed.
	CacheDir string
	// CellFault, when non-nil, is consulted before every simulation
	// attempt (including retries) and its non-nil error is treated exactly
	// like a simulation failure: retried when sim.Retryable, ledgered
	// otherwise. It models execution-layer faults — flaky machines,
	// injected chaos — without touching the cell's content key, so faulted
	// cells stay cacheable and their eventual results identical to a
	// fault-free run.
	CellFault func(ctx context.Context, cellID string, attempt int) error
	// Backend is where cell attempts execute (nil = Local(), in-process).
	Backend Backend
	// OnEvent, when non-nil, receives the campaign's typed event stream:
	// cell lifecycle events serialised into one totally ordered sequence.
	// Every cell that retires produces exactly one terminal event
	// (completed, cached or failed), so progress is a count over
	// the stream. It is called from worker goroutines under the sink's
	// lock — callbacks must return quickly and must not block on campaign
	// progress.
	OnEvent func(Event)
}

func (e Exec) withDefaults() Exec {
	if e.Workers <= 0 {
		e.Workers = runtime.NumCPU()
	}
	return e
}

// Option configures one campaign run.
type Option func(*Exec)

// WithCache memoizes cell results in a content-addressed cache at dir.
func WithCache(dir string) Option { return func(e *Exec) { e.CacheDir = dir } }

// WithWorkers sets the worker-pool width.
func WithWorkers(n int) Option { return func(e *Exec) { e.Workers = n } }

// WithRetries retries retryable cell failures up to n times with linear
// backoff (base × attempt).
func WithRetries(n int, backoff time.Duration) Option {
	return func(e *Exec) { e.Retries = n; e.RetryBackoff = backoff }
}

// WithRunTimeout bounds each cell's wall-clock time.
func WithRunTimeout(d time.Duration) Option { return func(e *Exec) { e.RunTimeout = d } }

// WithCellFault installs an execution-layer fault hook consulted before
// every simulation attempt (see Exec.CellFault).
func WithCellFault(fn func(ctx context.Context, cellID string, attempt int) error) Option {
	return func(e *Exec) { e.CellFault = fn }
}

// WithBackend selects where cell attempts execute (see Exec.Backend).
func WithBackend(b Backend) Option { return func(e *Exec) { e.Backend = b } }

// WithEvents installs a callback for the campaign's typed event stream
// (see Exec.OnEvent).
func WithEvents(fn func(Event)) Option { return func(e *Exec) { e.OnEvent = fn } }

// Failure is one failure-ledger entry: which cell failed, with what error,
// after how many attempts.
type Failure struct {
	ID       string
	Attempts int
	Err      error
}

// Report is the outcome of a campaign: every completed cell's result plus
// an explicit failure ledger and the cache accounting that lets callers
// (and `make campaign`) assert "this re-run simulated nothing".
type Report struct {
	// Runs holds single-core results by cell ID.
	Runs map[string]*stats.Run
	// MixRuns holds multi-core results by cell ID (one run per core).
	MixRuns map[string][]*stats.Run
	// Failures is the ledger, sorted by cell ID.
	Failures []Failure
	// CacheHits and Simulated partition the completed cells by where
	// their result came from; Total is len(spec.Cells).
	CacheHits, Simulated int
	Total                int
}

// Complete reports whether every cell completed.
func (r *Report) Complete() bool {
	return len(r.Failures) == 0 && len(r.Runs)+len(r.MixRuns) == r.Total
}

// Err folds the failure ledger into one error (nil when empty).
func (r *Report) Err() error {
	if len(r.Failures) == 0 {
		return nil
	}
	f := r.Failures[0]
	return fmt.Errorf("campaign: %d/%d cells failed (first: %s after %d attempt(s): %w)",
		len(r.Failures), r.Total, f.ID, f.Attempts, f.Err)
}

// Run executes the campaign. Exec.Workers goroutines share one cursor over
// spec.Cells, so cells start in spec order; each worker takes the next cell
// until the cells run out or ctx is done. A panicking or erroring cell
// becomes a ledger entry (retryable failures retry with backoff), never a
// campaign abort. The returned error is non-nil only for an invalid spec,
// an unusable cache, or a cancelled ctx; the report then holds whatever
// completed first.
func Run(ctx context.Context, spec Spec, opts ...Option) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var ex Exec
	for _, o := range opts {
		o(&ex)
	}
	ex = ex.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}

	var store *Store
	if ex.CacheDir != "" {
		var err error
		if store, err = OpenStore(ex.CacheDir); err != nil {
			return nil, err
		}
	}

	backend := ex.Backend
	if backend == nil {
		backend = Local()
	}
	e := &engine{
		ctx:     ctx,
		ex:      ex,
		backend: backend,
		events:  &eventSink{fn: ex.OnEvent},
		cells:   spec.Cells,
		store:   store,
		rep: &Report{
			Runs:    map[string]*stats.Run{},
			MixRuns: map[string][]*stats.Run{},
			Total:   len(spec.Cells),
		},
	}
	e.run()
	sort.Slice(e.rep.Failures, func(i, j int) bool { return e.rep.Failures[i].ID < e.rep.Failures[j].ID })
	return e.rep, ctx.Err()
}

type engine struct {
	ctx     context.Context
	ex      Exec
	backend Backend
	events  *eventSink
	cells   []Cell
	store   *Store

	next atomic.Int64 // index of the next cell to start
	mu   sync.Mutex   // guards rep
	rep  *Report
}

func (e *engine) run() {
	var wg sync.WaitGroup
	for w := 0; w < min(e.ex.Workers, len(e.cells)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for e.ctx.Err() == nil {
				ci := int(e.next.Add(1) - 1)
				if ci >= len(e.cells) {
					return
				}
				e.exec(ci)
			}
		}()
	}
	wg.Wait()
}

// exec resolves one cell: the result cache first, then simulation (with
// retry fault isolation; the backend recovers panics). Every freshly
// computed result is written to the cache, which checkpoints it.
func (e *engine) exec(ci int) {
	c := &e.cells[ci]
	key, kerr := c.key() // kerr != nil ⇒ uncacheable: always simulate, never store
	if kerr == nil && e.store != nil {
		// Lookup by content key, not cell ID: the key identifies the
		// result regardless of which campaign (or ID spelling) produced
		// it, and a drifted config simply computes a key that is absent.
		if runs, ok := e.store.Get(key); ok {
			e.record(c, runs, &e.rep.CacheHits)
			e.events.emit(Event{Kind: EventCellCached, Cell: c.ID})
			return
		}
	}
	e.events.emit(Event{Kind: EventCellStarted, Cell: c.ID})
	runs, attempts, err := e.simulate(c)
	if err != nil {
		if e.ctx.Err() != nil && errors.Is(err, e.ctx.Err()) {
			return // torn down by cancellation; the ctx error covers it
		}
		e.mu.Lock()
		e.rep.Failures = append(e.rep.Failures, Failure{ID: c.ID, Attempts: attempts, Err: err})
		e.mu.Unlock()
		e.events.emit(Event{Kind: EventCellFailed, Cell: c.ID, Attempt: attempts, Err: err.Error()})
		return
	}
	e.record(c, runs, &e.rep.Simulated)
	e.events.emit(Event{Kind: EventCellCompleted, Cell: c.ID, Attempt: attempts})
	if kerr == nil && e.store != nil {
		// Best-effort: a full disk costs future cache hits, not results.
		_ = e.store.Put(key, runs)
	}
}

func (e *engine) record(c *Cell, runs []*stats.Run, counter *int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if c.isMix() {
		e.rep.MixRuns[c.ID] = runs
	} else {
		e.rep.Runs[c.ID] = runs[0]
	}
	*counter++
}

// simulate runs one cell with retry-on-retryable and linear backoff. The
// Exec.CellFault hook runs before each attempt; its error counts as that
// attempt's outcome without the simulation ever starting. Each attempt
// goes to the execution backend under its own RunTimeout-bounded context,
// so the timeout and retry policy are uniform across backends.
func (e *engine) simulate(c *Cell) (runs []*stats.Run, attempts int, err error) {
	for attempts = 1; ; attempts++ {
		runs, err = nil, nil
		if e.ex.CellFault != nil {
			err = e.ex.CellFault(e.ctx, c.ID, attempts)
		}
		if err == nil {
			runs, err = e.execOnce(c)
		}
		if err == nil || !sim.Retryable(err) || attempts > e.ex.Retries || e.ctx.Err() != nil {
			return runs, attempts, err
		}
		e.events.emit(Event{Kind: EventCellRetried, Cell: c.ID, Attempt: attempts + 1, Err: err.Error()})
		if delay := e.ex.RetryBackoff * time.Duration(attempts); delay > 0 {
			t := time.NewTimer(delay)
			select {
			case <-e.ctx.Done():
				t.Stop()
				return runs, attempts, err
			case <-t.C:
			}
		}
	}
}

// execOnce hands one attempt to the backend under a RunTimeout-bounded
// context.
func (e *engine) execOnce(c *Cell) ([]*stats.Run, error) {
	ctx := e.ctx
	if e.ex.RunTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.ex.RunTimeout)
		defer cancel()
	}
	return e.backend.ExecuteCell(ctx, c, e.events.emit)
}
