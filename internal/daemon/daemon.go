// Package daemon turns the campaign engine into a hardened long-running
// simulation-as-a-service: an HTTP/JSON server that admits campaign specs,
// schedules them on a bounded multi-tenant job queue, streams progress, and
// serves memoized results straight from the content-addressed cache.
//
// Robustness is the design driver, in order:
//
//   - Admission control with explicit backpressure. The job queue is a
//     fixed-depth FIFO; a full queue answers 429 + Retry-After instead of
//     growing goroutines. Per-client token buckets bound request rate and
//     per-client quotas bound concurrent jobs, so one hostile tenant cannot
//     starve the rest.
//   - Bounded execution. Every job runs under a context carrying its
//     deadline; cells get the campaign engine's recover/retry fault
//     isolation (transient failures retry with backoff into the existing
//     failure ledger), and a per-cell run timeout.
//   - Graceful drain. SIGTERM (via Drain) stops admission, gives in-flight
//     jobs a grace period, then cancels them; because every completed cell
//     is already fsync'd to the result cache, cancellation loses at most
//     the cells still in flight. The process exits 0 with every incomplete
//     job resumable.
//   - Crash recovery. On startup the daemon replays its persisted job
//     records: jobs that were queued, running, or interrupted are
//     re-admitted, and the cache serves their completed cells without
//     simulation — an interrupted campaign resumes instead of recomputing.
//   - Observability. /healthz is wired to a per-job forward-progress
//     watchdog (a running job that stops retiring cells trips it), /readyz
//     reflects the admission state (draining or saturated ⇒ not ready),
//     and /metricz serves — or streams — the daemon's metrics registry.
package daemon

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/faultinject"
	"repro/internal/metrics"
)

// Config is the daemon's tuning surface. The zero value is unusable — use
// DefaultConfig and override.
type Config struct {
	// StateDir holds job records (required).
	StateDir string
	// CacheDir is the content-addressed result cache, shareable with
	// cmd/experiments and cmd/pgcsim (default <StateDir>/cache). It is
	// also every job's checkpoint: a recovered job's completed cells are
	// served from it as cache hits.
	CacheDir string

	// Workers is the campaign worker-pool width per running job.
	Workers int
	// JobConcurrency is how many jobs run simultaneously; total CPU
	// demand is roughly JobConcurrency × Workers.
	JobConcurrency int
	// QueueDepth bounds the number of queued (admitted, not yet running)
	// jobs; beyond it submissions get 429 + Retry-After.
	QueueDepth int

	// MaxCells bounds cells per campaign; MaxInstrs bounds warmup+measured
	// instructions per cell.
	MaxCells  int
	MaxInstrs uint64
	// DefaultWarmup/DefaultInstrs apply to cells without a config override.
	DefaultWarmup uint64
	DefaultInstrs uint64

	// MaxJobsPerClient bounds one client's non-terminal (queued+running)
	// jobs.
	MaxJobsPerClient int
	// RatePerSec and Burst parameterise the per-client token bucket.
	RatePerSec float64
	Burst      int

	// Retries/RetryBackoff/RunTimeout are passed to the campaign engine
	// (bounded retry of transient cell failures; per-cell wall-clock cap).
	Retries      int
	RetryBackoff time.Duration
	RunTimeout   time.Duration

	// DefaultDeadline bounds a campaign that asked for none; MaxDeadline
	// caps what a campaign may ask for.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// MaxWait caps how long a submit call may block on completion.
	MaxWait time.Duration
	// WarmBudget bounds the inline fast path for fully warm campaigns: if
	// every cell's key probes warm, the campaign executes synchronously in
	// the submit handler under this budget (cache reads — sub-millisecond
	// per cell); if a probe lied (entry corrupted meanwhile) and the
	// budget expires, the job falls back to the queue and resumes from
	// the cache.
	WarmBudget time.Duration

	// StallAfter is the health watchdog bound: a running job with no cell
	// progress for this long trips /healthz.
	StallAfter time.Duration
	// DrainGrace is how long Drain waits for in-flight jobs to finish
	// before cancelling them.
	DrainGrace time.Duration

	// Chaos, when non-nil, injects execution-layer faults (transient cell
	// failures, stalls) into every campaign — the soak harness's hook.
	// Exec faults never touch cell content keys, so results under chaos
	// stay byte-identical to a fault-free run.
	Chaos *faultinject.ExecInjector

	// Now overrides the rate limiter's clock (tests); nil means time.Now.
	Now func() time.Time
	// Logf overrides the log sink; nil means log.Printf.
	Logf func(format string, args ...any)
}

// DefaultConfig returns production defaults for a single-box daemon rooted
// at stateDir.
func DefaultConfig(stateDir string) Config {
	return Config{
		StateDir:         stateDir,
		Workers:          runtime.NumCPU(),
		JobConcurrency:   2,
		QueueDepth:       64,
		MaxCells:         256,
		MaxInstrs:        20_000_000,
		DefaultWarmup:    50_000,
		DefaultInstrs:    100_000,
		MaxJobsPerClient: 8,
		RatePerSec:       5,
		Burst:            10,
		Retries:          2,
		RetryBackoff:     100 * time.Millisecond,
		RunTimeout:       10 * time.Minute,
		DefaultDeadline:  30 * time.Minute,
		MaxDeadline:      2 * time.Hour,
		MaxWait:          30 * time.Second,
		WarmBudget:       2 * time.Second,
		StallAfter:       11 * time.Minute, // > RunTimeout: a slow cell is not a stall
		DrainGrace:       5 * time.Second,
	}
}

func (c Config) withDefaults() (Config, error) {
	if c.StateDir == "" {
		return c, fmt.Errorf("daemon: Config.StateDir is required")
	}
	d := DefaultConfig(c.StateDir)
	if c.CacheDir == "" {
		c.CacheDir = filepath.Join(c.StateDir, "cache")
	}
	if c.Workers <= 0 {
		c.Workers = d.Workers
	}
	if c.JobConcurrency <= 0 {
		c.JobConcurrency = d.JobConcurrency
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = d.QueueDepth
	}
	if c.MaxCells <= 0 {
		c.MaxCells = d.MaxCells
	}
	if c.MaxInstrs == 0 {
		c.MaxInstrs = d.MaxInstrs
	}
	if c.DefaultWarmup == 0 {
		c.DefaultWarmup = d.DefaultWarmup
	}
	if c.DefaultInstrs == 0 {
		c.DefaultInstrs = d.DefaultInstrs
	}
	if c.MaxJobsPerClient <= 0 {
		c.MaxJobsPerClient = d.MaxJobsPerClient
	}
	if c.RatePerSec <= 0 {
		c.RatePerSec = d.RatePerSec
	}
	if c.Burst <= 0 {
		c.Burst = d.Burst
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = d.RetryBackoff
	}
	if c.RunTimeout <= 0 {
		c.RunTimeout = d.RunTimeout
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = d.DefaultDeadline
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = d.MaxDeadline
	}
	if c.MaxWait <= 0 {
		c.MaxWait = d.MaxWait
	}
	if c.WarmBudget <= 0 {
		c.WarmBudget = d.WarmBudget
	}
	if c.StallAfter <= 0 {
		c.StallAfter = c.RunTimeout + time.Minute
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = d.DrainGrace
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c, nil
}

// Server is the daemon: admission control, the job queue and its runners,
// persisted job state, and the HTTP surface (Handler).
type Server struct {
	cfg     Config
	store   *campaign.Store
	limiter *rateLimiter
	met     *daemonMetrics

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[string]*job
	queue    []*job
	running  int
	draining bool
	stopping bool

	wg        sync.WaitGroup
	closeOnce sync.Once
}

// Open builds a server over stateDir, recovers persisted jobs, and starts
// the runner pool. It does not listen — callers mount Handler() on an
// http.Server they own.
func Open(cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(jobsDir(cfg.StateDir), 0o755); err != nil {
		return nil, fmt.Errorf("daemon: creating state dir: %w", err)
	}
	s := &Server{
		cfg:  cfg,
		jobs: map[string]*job{},
	}
	s.cond = sync.NewCond(&s.mu)
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	if s.store, err = campaign.OpenStore(cfg.CacheDir); err != nil {
		return nil, err
	}
	s.limiter = newRateLimiter(cfg.RatePerSec, cfg.Burst, cfg.Now)
	s.met = newDaemonMetrics(s)
	if err := s.recover(); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.JobConcurrency; i++ {
		s.wg.Add(1)
		go s.runner()
	}
	return s, nil
}

func (s *Server) logf(format string, args ...any) { s.cfg.Logf(format, args...) }

// recover re-admits every job the previous process left unfinished. The
// cache serves the cells it completed, so recovery costs only the cells
// that never finished.
func (s *Server) recover() error {
	recs, err := s.loadJobRecords()
	if err != nil {
		return err
	}
	for _, rec := range recs {
		if rec.State.terminal() && rec.State != JobInterrupted {
			// done/failed/canceled: load for status and result serving.
			s.jobs[rec.ID] = newJob(rec, nil)
			continue
		}
		comp, cerr := s.compile(&rec.Request)
		if cerr != nil {
			// Limits may have changed across the restart; the job cannot
			// be re-admitted, but it must not vanish silently.
			rec.State = JobFailed
			rec.Error = fmt.Sprintf("not re-admissible after restart: %v", cerr)
			j := newJob(rec, nil)
			s.jobs[rec.ID] = j
			if perr := s.persist(j); perr != nil {
				s.logf("%v", perr)
			}
			continue
		}
		rec.State = JobQueued
		rec.Error = ""
		j := newJob(rec, comp)
		s.jobs[rec.ID] = j
		if perr := s.persist(j); perr != nil {
			return perr
		}
		s.queue = append(s.queue, j)
		s.met.recovered.Add(1)
		s.logf("daemon: recovered job %s (%d cells, %d already checkpointed)",
			rec.ID, len(comp.spec.Cells), rec.Progress.Done)
	}
	return nil
}

// runner is one job-execution goroutine: it pulls queued jobs in FIFO
// order until the server stops.
func (s *Server) runner() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.stopping {
			s.cond.Wait()
		}
		if s.stopping {
			s.mu.Unlock()
			return
		}
		j := s.queue[0]
		s.queue = s.queue[1:]
		s.running++
		s.mu.Unlock()

		s.runJob(j)

		s.mu.Lock()
		s.running--
		s.mu.Unlock()
	}
}

// runJob executes one job end to end: deadline context, campaign run,
// outcome classification, persistence.
func (s *Server) runJob(j *job) {
	j.mu.Lock()
	if j.rec.State.terminal() {
		// Cancelled while queued; the DELETE handler already retired it.
		j.mu.Unlock()
		return
	}
	j.rec.State = JobRunning
	j.lastBeat = time.Now()
	j.mu.Unlock()
	if err := s.persist(j); err != nil {
		s.logf("%v", err)
	}

	ctx, cancel := context.WithTimeout(s.baseCtx, s.jobDeadline(j))
	defer cancel()
	j.mu.Lock()
	j.cancel = cancel
	doCancel := j.canceled // DELETE raced the start; honour it now
	j.mu.Unlock()
	if doCancel {
		cancel()
	}

	rep, err := campaign.Run(ctx, j.comp.spec, s.execOptions(j)...)
	s.finish(j, rep, err)
}

// runWarm is the fully-warm fast path: every cell's key probed warm, so the
// campaign executes inline in the submit handler under WarmBudget — pure
// cache reads, sub-millisecond per cell. If the probe lied (an entry was
// corrupted or evicted between probe and run) and the budget expires, the
// job falls back to the queue; the cache already holds whatever the inline
// attempt completed.
func (s *Server) runWarm(j *job) {
	j.mu.Lock()
	j.rec.State = JobRunning
	j.lastBeat = time.Now()
	j.mu.Unlock()
	if err := s.persist(j); err != nil {
		s.logf("%v", err)
	}
	budget := s.cfg.WarmBudget
	if d := s.jobDeadline(j); d < budget {
		budget = d
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, budget)
	defer cancel()
	rep, err := campaign.Run(ctx, j.comp.spec, s.execOptions(j)...)
	if err != nil && errors.Is(err, context.DeadlineExceeded) &&
		s.baseCtx.Err() == nil && budget < s.jobDeadline(j) {
		j.mu.Lock()
		j.rec.State = JobQueued
		j.mu.Unlock()
		if perr := s.persist(j); perr != nil {
			s.logf("%v", perr)
		}
		s.enqueue(j)
		return
	}
	s.met.warmServed.Add(1)
	s.finish(j, rep, err)
}

// warmProbe reports whether every cell of comp has a valid cache entry.
func (s *Server) warmProbe(comp *compiled) bool {
	for _, k := range comp.keys {
		if _, ok := s.store.Get(k); !ok {
			return false
		}
	}
	return true
}

// jobDeadline resolves a job's wall-clock budget.
func (s *Server) jobDeadline(j *job) time.Duration {
	d := s.cfg.DefaultDeadline
	if ms := j.rec.Request.DeadlineMS; ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	return d
}

// execOptions assembles the campaign execution policy for one job. The
// job's progress is counted from the run's event stream, starting afresh
// like the report the run ends in; every retired cell also beats the
// job's watchdog heartbeat.
func (s *Server) execOptions(j *job) []campaign.Option {
	p := Progress{Total: len(j.comp.spec.Cells)}
	opts := []campaign.Option{
		campaign.WithWorkers(s.cfg.Workers),
		campaign.WithRetries(s.cfg.Retries, s.cfg.RetryBackoff),
		campaign.WithRunTimeout(s.cfg.RunTimeout),
		campaign.WithCache(s.store.Dir()),
		campaign.WithEvents(func(ev campaign.Event) {
			s.met.onEvent(ev)
			if p.count(ev) { // the sink serialises events, so p needs no lock
				j.mu.Lock()
				j.rec.Progress = p
				j.lastBeat = time.Now()
				j.mu.Unlock()
			}
		}),
	}
	if s.cfg.Chaos != nil {
		opts = append(opts, campaign.WithCellFault(s.cfg.Chaos.CellFault))
	}
	return opts
}

// finish classifies a finished campaign run and retires the job.
func (s *Server) finish(j *job, rep *campaign.Report, err error) {
	j.mu.Lock()
	switch {
	case err != nil && errors.Is(err, context.Canceled):
		if j.canceled {
			j.rec.State = JobCanceled
		} else {
			// The only other canceller is the server's base context: drain.
			j.rec.State = JobInterrupted
		}
	case err != nil && errors.Is(err, context.DeadlineExceeded):
		j.rec.State = JobFailed
		j.rec.Error = fmt.Sprintf("deadline exceeded after %s", s.jobDeadline(j))
	case err != nil:
		j.rec.State = JobFailed
		j.rec.Error = err.Error()
	case rep.Complete():
		j.rec.State = JobDone
	default:
		j.rec.State = JobFailed
		if lerr := rep.Err(); lerr != nil {
			j.rec.Error = lerr.Error()
		} else {
			j.rec.Error = "campaign incomplete"
		}
	}
	if rep != nil {
		// Partial results are still results: an interrupted or failed job
		// serves what it completed, and the cache checkpoints it.
		j.rec.Result = resultOf(rep)
		j.rec.Progress.settle(rep)
	}
	j.mu.Unlock()
	if rep != nil {
		s.met.addReport(rep.Simulated, rep.CacheHits, len(rep.Failures))
	}
	s.retire(j)
}

// retire persists a terminal state, bumps the outcome counter, and wakes
// waiters exactly once.
func (s *Server) retire(j *job) {
	switch j.state() {
	case JobDone:
		s.met.completed.Add(1)
	case JobFailed:
		s.met.failed.Add(1)
	case JobCanceled:
		s.met.canceled.Add(1)
	case JobInterrupted:
		s.met.interrupted.Add(1)
	}
	if err := s.persist(j); err != nil {
		s.logf("%v", err)
	}
	close(j.done)
}

// Drain is the SIGTERM path: stop admitting, give in-flight jobs
// DrainGrace to finish, cancel the stragglers (the cache holds every cell
// they completed), stop the runners, and return once the server is fully
// quiesced. Queued jobs stay persisted as queued; cancelled jobs persist as
// interrupted; both are re-admitted by the next process.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	grace := time.NewTimer(s.cfg.DrainGrace)
	defer grace.Stop()
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
wait:
	for {
		s.mu.Lock()
		idle := s.running == 0 && len(s.queue) == 0
		s.mu.Unlock()
		if idle {
			break
		}
		select {
		case <-ctx.Done():
			break wait
		case <-grace.C:
			break wait
		case <-tick.C:
		}
	}
	s.shutdown()
	return nil
}

// Close tears the server down immediately (tests, error paths): cancel
// everything in flight and wait for the runners. Safe after Drain.
func (s *Server) Close() error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.shutdown()
	return nil
}

func (s *Server) shutdown() {
	s.closeOnce.Do(func() {
		s.baseCancel()
		s.mu.Lock()
		s.stopping = true
		s.cond.Broadcast()
		s.mu.Unlock()
		s.wg.Wait()
	})
}

// enqueue admits j to the queue (admission checks already passed).
func (s *Server) enqueue(j *job) {
	s.mu.Lock()
	s.queue = append(s.queue, j)
	s.cond.Signal()
	s.mu.Unlock()
}

// queueDepth / runningCount / isDraining are the gauge reads.
func (s *Server) queueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

func (s *Server) runningCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.running
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// activeJobs counts client's non-terminal jobs (the quota input).
func (s *Server) activeJobs(client string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.jobs {
		if j.active() {
			if st := j.status(); st.Client == client {
				n++
			}
		}
	}
	return n
}

// stalledJobs returns the running jobs that have made no progress within
// the watchdog bound — the /healthz input.
func (s *Server) stalledJobs() []string {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for id, j := range s.jobs {
		if j.stalledFor(now) > s.cfg.StallAfter {
			out = append(out, id)
		}
	}
	return out
}

// newJobID generates a random job identifier.
func newJobID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("daemon: generating job id: %w", err)
	}
	return "job-" + hex.EncodeToString(b[:]), nil
}

// Registry exposes the daemon's metrics registry (tests, embedding).
func (s *Server) Registry() *metrics.Registry { return s.met.reg }
