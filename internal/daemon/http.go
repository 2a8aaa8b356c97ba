package daemon

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"time"
)

// maxRequestBody bounds a submit body; campaign specs are small and a
// multi-gigabyte body is an attack, not a campaign.
const maxRequestBody = 1 << 20

// Handler returns the daemon's HTTP surface.
//
//	POST   /v1/campaigns           submit a campaign (202; 200 when terminal)
//	GET    /v1/campaigns           list job statuses
//	GET    /v1/campaigns/{id}      one job's status
//	GET    /v1/campaigns/{id}/result  terminal job's full results
//	GET    /v1/campaigns/{id}/events  JSONL stream of progress snapshots
//	DELETE /v1/campaigns/{id}      cancel a queued or running job
//	GET    /healthz                liveness (watchdog state)
//	GET    /readyz                 admission readiness (drain/saturation)
//	GET    /metricz                metrics snapshot (?stream_ms=N to stream)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /v1/campaigns", s.handleList)
	mux.HandleFunc("GET /v1/campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/campaigns/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/campaigns/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/campaigns/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metricz", s.handleMetricz)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.met.httpRequests.Add(1)
		mux.ServeHTTP(w, r)
	})
}

// apiError is the JSON error envelope; retryAfter > 0 additionally sets the
// Retry-After header (rounded up to whole seconds, minimum 1).
func apiError(w http.ResponseWriter, code int, retryAfter time.Duration, format string, args ...any) {
	if retryAfter > 0 {
		secs := int64((retryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"error":          fmt.Sprintf(format, args...),
		"retry_after_ms": retryAfter.Milliseconds(),
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// clientID identifies the tenant for rate limiting and quotas: the
// X-Client-ID header when present (truncated to 64 bytes), else the remote
// host.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		if len(id) > 64 {
			id = id[:64]
		}
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// submitResponse is the submit (and status-with-result) envelope.
type submitResponse struct {
	JobStatus
	Result *JobResult `json:"result,omitempty"`
}

// handleSubmit is the admission path. Checks run cheapest-first and every
// rejection is explicit backpressure — a 4xx/5xx with Retry-After — never
// an unbounded queue or goroutine.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		s.met.rejDraining.Add(1)
		apiError(w, http.StatusServiceUnavailable, 30*time.Second, "daemon is draining")
		return
	}
	client := clientID(r)
	if ok, retry := s.limiter.allow(client); !ok {
		s.met.rejRate.Add(1)
		apiError(w, http.StatusTooManyRequests, retry, "rate limit exceeded for client %q", client)
		return
	}

	var req CampaignRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.met.rejInvalid.Add(1)
		apiError(w, http.StatusBadRequest, 0, "decoding request: %v", err)
		return
	}
	comp, err := s.compile(&req)
	if err != nil {
		s.met.rejInvalid.Add(1)
		apiError(w, http.StatusBadRequest, 0, "invalid campaign: %v", err)
		return
	}

	// Idempotent re-submit: a known ID returns the existing job (and may
	// wait on it), never a duplicate.
	if req.ID != "" {
		if existing := s.lookup(req.ID); existing != nil {
			s.respondJob(w, r, existing, req.WaitMS)
			return
		}
	}

	if n := s.activeJobs(client); n >= s.cfg.MaxJobsPerClient {
		s.met.rejQuota.Add(1)
		apiError(w, http.StatusTooManyRequests, 5*time.Second,
			"client %q has %d active jobs (quota %d)", client, n, s.cfg.MaxJobsPerClient)
		return
	}
	if d := s.queueDepth(); d >= s.cfg.QueueDepth {
		s.met.rejQueue.Add(1)
		apiError(w, http.StatusTooManyRequests, 2*time.Second,
			"job queue is full (%d queued)", d)
		return
	}

	id := req.ID
	if id == "" {
		if id, err = newJobID(); err != nil {
			apiError(w, http.StatusInternalServerError, 0, "%v", err)
			return
		}
	}
	req.ID = id
	j := newJob(jobRecord{
		ID: id, Client: client, Name: req.Name, State: JobQueued,
		SubmittedAt: time.Now().UTC(), Request: req,
	}, comp)

	s.mu.Lock()
	if existing := s.jobs[id]; existing != nil {
		// Two racing submits with the same explicit ID: first one wins.
		s.mu.Unlock()
		s.respondJob(w, r, existing, req.WaitMS)
		return
	}
	s.jobs[id] = j
	s.mu.Unlock()

	// Persist before acknowledging: once a client has seen this ID, a
	// crash cannot lose the job.
	if err := s.persist(j); err != nil {
		s.mu.Lock()
		delete(s.jobs, id)
		s.mu.Unlock()
		apiError(w, http.StatusInternalServerError, 0, "%v", err)
		return
	}
	s.met.submitted.Add(1)

	if s.warmProbe(comp) {
		s.runWarm(j) // inline: pure cache reads under WarmBudget
	} else {
		s.enqueue(j)
	}
	s.respondJob(w, r, j, req.WaitMS)
}

// respondJob writes a job's status (and result when terminal), optionally
// blocking up to waitMS for the job to finish first. 200 for terminal
// states, 202 otherwise.
func (s *Server) respondJob(w http.ResponseWriter, r *http.Request, j *job, waitMS int64) {
	if waitMS > 0 {
		wait := time.Duration(waitMS) * time.Millisecond
		if wait > s.cfg.MaxWait {
			wait = s.cfg.MaxWait
		}
		t := time.NewTimer(wait)
		defer t.Stop()
		select {
		case <-j.done:
		case <-t.C:
		case <-r.Context().Done():
			return // client went away; the job keeps running
		}
	}
	st := j.status()
	resp := submitResponse{JobStatus: st}
	code := http.StatusAccepted
	if st.State.terminal() {
		code = http.StatusOK
		resp.Result = j.result()
	}
	writeJSON(w, code, resp)
}

func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.status())
	}
	sort.Slice(out, func(i, k int) bool {
		if !out[i].SubmittedAt.Equal(out[k].SubmittedAt) {
			return out[i].SubmittedAt.Before(out[k].SubmittedAt)
		}
		return out[i].ID < out[k].ID
	})
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		apiError(w, http.StatusNotFound, 0, "unknown job %q", r.PathValue("id"))
		return
	}
	s.respondJob(w, r, j, 0)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		apiError(w, http.StatusNotFound, 0, "unknown job %q", r.PathValue("id"))
		return
	}
	st := j.status()
	if !st.State.terminal() {
		apiError(w, http.StatusConflict, time.Second, "job %s is %s; no result yet", st.ID, st.State)
		return
	}
	res := j.result()
	if res == nil {
		apiError(w, http.StatusNotFound, 0, "job %s (%s) has no result payload", st.ID, st.State)
		return
	}
	writeJSON(w, http.StatusOK, submitResponse{JobStatus: st, Result: res})
}

// handleEvents streams JSONL progress snapshots: one line per change, a
// final line at the terminal state, then EOF. A disconnected client stops
// the stream; the job is unaffected.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		apiError(w, http.StatusNotFound, 0, "unknown job %q", r.PathValue("id"))
		return
	}
	interval := 200 * time.Millisecond
	if ms, err := strconv.Atoi(r.URL.Query().Get("interval_ms")); err == nil && ms >= 50 {
		interval = time.Duration(ms) * time.Millisecond
	}
	w.Header().Set("Content-Type", "application/jsonl")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	emit := func(st JobStatus) {
		_ = enc.Encode(st)
		if flusher != nil {
			flusher.Flush()
		}
	}
	last := j.status()
	emit(last)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-j.done:
			emit(j.status())
			return
		case <-tick.C:
			st := j.status()
			if st.State != last.State || st.Progress != last.Progress {
				last = st
				emit(st)
			}
		}
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		apiError(w, http.StatusNotFound, 0, "unknown job %q", r.PathValue("id"))
		return
	}
	j.mu.Lock()
	switch {
	case j.rec.State.terminal():
		// Nothing to cancel; report the terminal state (idempotent).
		j.mu.Unlock()
	case j.rec.State == JobQueued:
		j.canceled = true
		j.rec.State = JobCanceled
		j.mu.Unlock()
		s.retire(j) // the runner skips already-terminal jobs
	default: // running
		j.canceled = true
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	}
	s.respondJob(w, r, j, 0)
}

// handleHealthz is liveness wired to the forward-progress watchdog: a
// running job that has retired no cell within StallAfter marks the daemon
// unhealthy (the supervisor should restart it; recovery resumes the jobs).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if stalled := s.stalledJobs(); len(stalled) > 0 {
		sort.Strings(stalled)
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "stalled", "jobs": stalled,
			"stall_after_ms": s.cfg.StallAfter.Milliseconds(),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// handleReadyz is admission readiness: draining or a saturated queue means
// "send traffic elsewhere", while the process itself stays healthy.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.isDraining():
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
	case s.queueDepth() >= s.cfg.QueueDepth:
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "saturated"})
	default:
		writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
	}
}

// handleMetricz serves the metrics registry: one snapshot by default, a
// JSONL stream of snapshots with ?stream_ms=N (minimum 100).
func (s *Server) handleMetricz(w http.ResponseWriter, r *http.Request) {
	if msStr := r.URL.Query().Get("stream_ms"); msStr != "" {
		ms, err := strconv.Atoi(msStr)
		if err != nil || ms < 100 {
			apiError(w, http.StatusBadRequest, 0, "stream_ms must be an integer >= 100")
			return
		}
		w.Header().Set("Content-Type", "application/jsonl")
		w.WriteHeader(http.StatusOK)
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		tick := time.NewTicker(time.Duration(ms) * time.Millisecond)
		defer tick.Stop()
		for {
			if err := enc.Encode(s.met.reg.Snapshot()); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			select {
			case <-r.Context().Done():
				return
			case <-s.baseCtx.Done():
				return
			case <-tick.C:
			}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = s.met.reg.Snapshot().WriteJSON(w)
}
