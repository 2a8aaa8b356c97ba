package daemon

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/stats"
)

// JobState is a job's position in the daemon's lifecycle state machine:
//
//	queued ──▶ running ──▶ done
//	   │          ├──────▶ failed      (ledgered cells or expired deadline)
//	   │          ├──────▶ canceled    (client DELETE)
//	   │          └──────▶ interrupted (daemon drained mid-campaign)
//	   └─────────────────▶ canceled
//
// queued, running and interrupted survive a restart as "queued": the job is
// re-admitted and the result cache serves every cell that already
// completed, so an interrupted campaign resumes instead of recomputing.
type JobState string

// The job states.
const (
	JobQueued      JobState = "queued"
	JobRunning     JobState = "running"
	JobDone        JobState = "done"
	JobFailed      JobState = "failed"
	JobCanceled    JobState = "canceled"
	JobInterrupted JobState = "interrupted"
)

// terminal reports whether st is an end state for this daemon process.
// interrupted is terminal here (the process is draining) but resumable by
// the next process.
func (st JobState) terminal() bool {
	switch st {
	case JobDone, JobFailed, JobCanceled, JobInterrupted:
		return true
	}
	return false
}

// Progress is how much of a job's campaign has retired, partitioned by
// where each cell's result came from. Done counts both completions and
// ledgered failures, so Done == Total exactly when the campaign has drained.
type Progress struct {
	Done      int `json:"done"`
	Total     int `json:"total"`
	Simulated int `json:"simulated"`
	CacheHits int `json:"cache_hits"`
	Failed    int `json:"failed"`
	// LastCell is the most recently retired cell.
	LastCell string `json:"last_cell,omitempty"`
}

// count folds one campaign event into p and reports whether it retired a
// cell: the engine emits exactly one terminal event (completed, cached or
// failed) per retired cell.
func (p *Progress) count(ev campaign.Event) bool {
	switch ev.Kind {
	case campaign.EventCellCompleted:
		p.Simulated++
	case campaign.EventCellCached:
		p.CacheHits++
	case campaign.EventCellFailed:
		p.Failed++
	default:
		return false
	}
	p.Done++
	p.LastCell = ev.Cell
	return true
}

// settle overwrites p's counts with a finished campaign's report, the
// authoritative account of the run; LastCell is kept.
func (p *Progress) settle(rep *campaign.Report) {
	*p = Progress{
		Done:  rep.Simulated + rep.CacheHits + len(rep.Failures),
		Total: rep.Total, Simulated: rep.Simulated, CacheHits: rep.CacheHits,
		Failed: len(rep.Failures), LastCell: p.LastCell,
	}
}

// JobFailure is one failure-ledger entry of a job's result.
type JobFailure struct {
	Cell     string `json:"cell"`
	Attempts int    `json:"attempts"`
	Error    string `json:"error"`
}

// JobResult is a completed (or partially completed) job's payload: every
// cell's runs plus the campaign accounting that lets a client assert "this
// re-submit simulated nothing".
type JobResult struct {
	Runs      map[string][]*stats.Run `json:"runs"`
	Simulated int                     `json:"simulated"`
	CacheHits int                     `json:"cache_hits"`
	Failures  []JobFailure            `json:"failures,omitempty"`
}

// jobRecord is the persisted form of a job: everything needed to serve its
// status after a restart and to re-admit it if it was in flight. One JSON
// file per job under stateDir/jobs, rewritten atomically on every state
// transition.
type jobRecord struct {
	ID          string          `json:"id"`
	Client      string          `json:"client"`
	Name        string          `json:"name,omitempty"`
	State       JobState        `json:"state"`
	SubmittedAt time.Time       `json:"submitted_at"`
	Request     CampaignRequest `json:"request"`
	Progress    Progress        `json:"progress"`
	Error       string          `json:"error,omitempty"`
	Result      *JobResult      `json:"result,omitempty"`
}

// JobStatus is the wire form of a job's current state (no runs — those are
// served by the result endpoint).
type JobStatus struct {
	ID          string    `json:"id"`
	Client      string    `json:"client"`
	Name        string    `json:"name,omitempty"`
	State       JobState  `json:"state"`
	SubmittedAt time.Time `json:"submitted_at"`
	Progress    Progress  `json:"progress"`
	Error       string    `json:"error,omitempty"`
}

// job is the in-memory job: the persisted record plus the compiled spec and
// the control surface (cancel, watchdog heartbeat, completion broadcast).
type job struct {
	mu       sync.Mutex
	rec      jobRecord
	comp     *compiled
	cancel   func() // cancels the running campaign's context
	canceled bool   // a client asked for cancellation
	lastBeat time.Time

	// done is closed exactly once, when the job reaches a terminal state
	// in this process; submit-waiters and event streams block on it.
	done chan struct{}
}

func newJob(rec jobRecord, comp *compiled) *job {
	j := &job{rec: rec, comp: comp, done: make(chan struct{})}
	if rec.State.terminal() {
		close(j.done)
	}
	return j
}

// status snapshots the job for the wire.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID: j.rec.ID, Client: j.rec.Client, Name: j.rec.Name,
		State: j.rec.State, SubmittedAt: j.rec.SubmittedAt,
		Progress: j.rec.Progress, Error: j.rec.Error,
	}
}

// result returns the job's result payload (nil while none exists).
func (j *job) result() *JobResult {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec.Result
}

// state returns the current state.
func (j *job) state() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec.State
}

// active reports whether the job still holds a quota slot.
func (j *job) active() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return !j.rec.State.terminal()
}

// beat refreshes the watchdog heartbeat.
func (j *job) beat() {
	j.mu.Lock()
	j.lastBeat = time.Now()
	j.mu.Unlock()
}

// stalledFor returns how long a running job has gone without progress
// (zero for non-running jobs).
func (j *job) stalledFor(now time.Time) time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.rec.State != JobRunning || j.lastBeat.IsZero() {
		return 0
	}
	return now.Sub(j.lastBeat)
}

// resultOf converts a campaign report into the persisted payload.
func resultOf(rep *campaign.Report) *JobResult {
	res := &JobResult{
		Runs:      map[string][]*stats.Run{},
		Simulated: rep.Simulated, CacheHits: rep.CacheHits,
	}
	for id, r := range rep.Runs {
		res.Runs[id] = []*stats.Run{r}
	}
	for id, rs := range rep.MixRuns {
		res.Runs[id] = rs
	}
	for _, f := range rep.Failures {
		res.Failures = append(res.Failures, JobFailure{
			Cell: f.ID, Attempts: f.Attempts, Error: f.Err.Error(),
		})
	}
	return res
}

// jobsDir is the state-directory layout.
func jobsDir(stateDir string) string { return filepath.Join(stateDir, "jobs") }

func (s *Server) jobPath(id string) string {
	return filepath.Join(jobsDir(s.cfg.StateDir), id+".json")
}

// persist writes the job's record atomically (temp file + rename, fsync'd):
// a crash leaves the previous record or the new one, never a torn file.
// Persist-before-acknowledge is the no-lost-jobs invariant: a job is only
// ever acknowledged to a client after its record is durable.
func (s *Server) persist(j *job) error {
	j.mu.Lock()
	rec := j.rec
	j.mu.Unlock()
	b, err := json.MarshalIndent(&rec, "", " ")
	if err != nil {
		return fmt.Errorf("daemon: encoding job %s: %w", rec.ID, err)
	}
	path := s.jobPath(rec.ID)
	tmp, err := os.CreateTemp(filepath.Dir(path), "job-*.tmp")
	if err != nil {
		return fmt.Errorf("daemon: persisting job %s: %w", rec.ID, err)
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("daemon: persisting job %s: %w", rec.ID, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("daemon: persisting job %s: %w", rec.ID, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("daemon: persisting job %s: %w", rec.ID, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("daemon: persisting job %s: %w", rec.ID, err)
	}
	return nil
}

// loadJobRecords reads every persisted job record in the state directory.
// Unparsable records are skipped with a log line (a torn temp file or
// manual edit must not stop the daemon from starting).
func (s *Server) loadJobRecords() ([]jobRecord, error) {
	entries, err := os.ReadDir(jobsDir(s.cfg.StateDir))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("daemon: reading job records: %w", err)
	}
	var out []jobRecord
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".json" {
			continue
		}
		b, err := os.ReadFile(filepath.Join(jobsDir(s.cfg.StateDir), e.Name()))
		if err != nil {
			s.logf("daemon: skipping job record %s: %v", e.Name(), err)
			continue
		}
		var rec jobRecord
		if err := json.Unmarshal(b, &rec); err != nil || rec.ID == "" {
			s.logf("daemon: skipping corrupt job record %s: %v", e.Name(), err)
			continue
		}
		out = append(out, rec)
	}
	return out, nil
}
