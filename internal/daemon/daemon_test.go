package daemon

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// testConfig returns a fast, permissive configuration over temp dirs.
func testConfig(t testing.TB) Config {
	t.Helper()
	cfg := DefaultConfig(t.TempDir())
	cfg.CacheDir = filepath.Join(t.TempDir(), "cache")
	cfg.Workers = 2
	cfg.JobConcurrency = 2
	cfg.QueueDepth = 8
	cfg.DefaultWarmup = 1_000
	cfg.DefaultInstrs = 3_000
	cfg.MaxJobsPerClient = 8
	cfg.RatePerSec = 1_000
	cfg.Burst = 1_000
	cfg.Retries = 2
	cfg.RetryBackoff = time.Millisecond
	cfg.MaxWait = 20 * time.Second
	cfg.WarmBudget = 5 * time.Second
	cfg.DrainGrace = 2 * time.Second
	cfg.Logf = func(string, ...any) {}
	return cfg
}

func openTest(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Close()
		ts.Close()
	})
	return s, ts
}

func submit(t testing.TB, ts *httptest.Server, body string) (*http.Response, submitResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	var sr submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil && resp.StatusCode < 400 {
		t.Fatalf("decoding submit response: %v", err)
	}
	return resp, sr
}

func getStatus(t testing.TB, ts *httptest.Server, id string) submitResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + id)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	defer resp.Body.Close()
	var sr submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("decoding status: %v", err)
	}
	return sr
}

func waitTerminal(t testing.TB, ts *httptest.Server, id string, within time.Duration) submitResponse {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		sr := getStatus(t, ts, id)
		if sr.State.terminal() {
			return sr
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %s", id, sr.State, within)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestSubmitRunAndWarmResubmit(t *testing.T) {
	_, ts := openTest(t, testConfig(t))

	body := `{"id":"first","cells":[
		{"id":"a","workload":"spec.stream_s00"},
		{"id":"b","workload":"spec.pagehop_s00"}],"wait_ms":15000}`
	resp, sr := submit(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status = %d, want 200", resp.StatusCode)
	}
	if sr.State != JobDone {
		t.Fatalf("state = %s (error %q), want done", sr.State, sr.JobStatus.Error)
	}
	if sr.Result == nil || len(sr.Result.Runs) != 2 {
		t.Fatalf("result = %+v, want 2 runs", sr.Result)
	}
	if sr.Result.Simulated != 2 {
		t.Fatalf("Simulated = %d, want 2", sr.Result.Simulated)
	}

	// Same cells under a new ID: every key is warm, so the campaign must be
	// served inline from the cache without simulating anything — even
	// without wait_ms the response is terminal.
	resp2, sr2 := submit(t, ts, `{"id":"second","cells":[
		{"id":"a","workload":"spec.stream_s00"},
		{"id":"b","workload":"spec.pagehop_s00"}]}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("warm submit status = %d, want 200", resp2.StatusCode)
	}
	if sr2.State != JobDone || sr2.Result == nil {
		t.Fatalf("warm state = %s, want inline done", sr2.State)
	}
	if sr2.Result.Simulated != 0 || sr2.Result.CacheHits != 2 {
		t.Fatalf("warm result simulated=%d cacheHits=%d, want 0/2",
			sr2.Result.Simulated, sr2.Result.CacheHits)
	}

	// Byte-identical results across cold and warm paths.
	b1, _ := json.Marshal(sr.Result.Runs)
	b2, _ := json.Marshal(sr2.Result.Runs)
	if string(b1) != string(b2) {
		t.Fatalf("warm result differs from cold result")
	}

	// The result endpoint serves the same payload.
	rr, err := http.Get(ts.URL + "/v1/campaigns/first/result")
	if err != nil || rr.StatusCode != http.StatusOK {
		t.Fatalf("result endpoint: %v status %d", err, rr.StatusCode)
	}
	rr.Body.Close()

	// List includes both jobs in submission order.
	lr, err := http.Get(ts.URL + "/v1/campaigns")
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	var list []JobStatus
	if err := json.NewDecoder(lr.Body).Decode(&list); err != nil {
		t.Fatalf("decoding list: %v", err)
	}
	lr.Body.Close()
	if len(list) != 2 || list[0].ID != "first" || list[1].ID != "second" {
		t.Fatalf("list = %+v, want [first second]", list)
	}
}

// TestFinishedJobProgress pins the progress a job reports once finished:
// counted from the campaign's event stream while running, it ends equal to
// the accounting of the job's report, keeps the wire field set, and its
// last_cell names a cell of the spec.
func TestFinishedJobProgress(t *testing.T) {
	_, ts := openTest(t, testConfig(t))
	submit(t, ts, `{"id":"warmup","cells":[{"id":"a","workload":"spec.stream_s00"}],"wait_ms":15000}`)
	// One warm and one cold cell: the job runs on the queue, not inline.
	_, sr := submit(t, ts, `{"id":"mixed","cells":[
		{"id":"a","workload":"spec.stream_s00"},
		{"id":"b","workload":"spec.pagehop_s00"}],"wait_ms":15000}`)
	if sr.State != JobDone || sr.Result == nil {
		t.Fatalf("state = %s (error %q), want done with a result", sr.State, sr.JobStatus.Error)
	}
	res := sr.Result
	want := Progress{
		Done: 2, Total: 2, Simulated: res.Simulated, CacheHits: res.CacheHits,
		Failed: len(res.Failures), LastCell: sr.Progress.LastCell,
	}
	if res.Simulated != 1 || res.CacheHits != 1 {
		t.Fatalf("result simulated=%d cache_hits=%d, want 1/1", res.Simulated, res.CacheHits)
	}
	if got := getStatus(t, ts, "mixed").Progress; got != want {
		t.Fatalf("status progress = %+v, want %+v", got, want)
	}
	if want.LastCell != "a" && want.LastCell != "b" {
		t.Fatalf("last_cell = %q, want a cell of the spec", want.LastCell)
	}

	resp, err := http.Get(ts.URL + "/v1/campaigns/mixed")
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	defer resp.Body.Close()
	var wire struct {
		Progress map[string]json.RawMessage `json:"progress"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatalf("decoding status: %v", err)
	}
	for _, k := range []string{"done", "total", "simulated", "cache_hits", "failed", "last_cell"} {
		if _, ok := wire.Progress[k]; !ok {
			t.Fatalf("progress wire lacks %q: %v", k, wire.Progress)
		}
	}
	if len(wire.Progress) != 6 {
		t.Fatalf("progress wire has %d fields, want 6: %v", len(wire.Progress), wire.Progress)
	}
}

func TestSubmitRejectsInvalid(t *testing.T) {
	s, ts := openTest(t, testConfig(t))
	for name, body := range map[string]string{
		"bad json":           `{"cells":[`,
		"no cells":           `{"cells":[]}`,
		"bad workload":       `{"cells":[{"id":"a","workload":"nope"}]}`,
		"bad id":             `{"id":"../../etc/passwd","cells":[{"id":"a","workload":"spec.stream_s00"}]}`,
		"unknown field":      `{"cells":[{"id":"a","workload":"spec.stream_s00","config":{"Bogus":1}}]}`,
		"fault injection":    `{"cells":[{"id":"a","workload":"spec.stream_s00","config":{"FaultInject":{}}}]}`,
		"zero instrs":        `{"cells":[{"id":"a","workload":"spec.stream_s00","config":{"SimInstrs":0}}]}`,
		"over budget":        `{"cells":[{"id":"a","workload":"spec.stream_s00","config":{"SimInstrs":999999999999}}]}`,
		"unknown cell field": `{"cells":[{"id":"a","workload":"spec.stream_s00","after":["a"]}]}`,
	} {
		resp, _ := submit(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}
	if got := s.met.rejInvalid.Load(); got < 9 {
		t.Fatalf("rejected.invalid = %d, want >= 9", got)
	}
}

// TestSubmitChecksNames: a cell naming a policy or prefetcher outside the
// simulator's vocabulary is a 400 naming the value, and a valid
// non-default name is admitted.
func TestSubmitChecksNames(t *testing.T) {
	_, ts := openTest(t, testConfig(t))
	for _, bad := range []struct{ config, name string }{
		{`{"Policy":"bogus"}`, `"bogus"`},
		{`{"L2CPrefetcher":"nope"}`, `L2C prefetcher "nope"`},
		{`{"L1DPrefetcher":"sms"}`, `L1D prefetcher "sms"`},
	} {
		resp, sr := submit(t, ts, `{"cells":[{"id":"a","workload":"spec.stream_s00","config":`+bad.config+`}]}`)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(sr.Error, bad.name) {
			t.Errorf("%s: status %d, error %q; want 400 naming %s", bad.config, resp.StatusCode, sr.Error, bad.name)
		}
	}
	resp, sr := submit(t, ts, `{"id":"fnl","cells":[{"id":"a","workload":"spec.stream_s00","config":{"L1IPrefetcher":"fnl+mma"}}],"wait_ms":15000}`)
	if resp.StatusCode != http.StatusOK || sr.State != JobDone {
		t.Fatalf("fnl+mma submit: %d %s (error %q)", resp.StatusCode, sr.State, sr.Error)
	}
}

// TestSubmitSampledCell validates sampling end to end over the wire: a
// sampled cell is admitted, runs to completion, and occupies its own slot in
// the content-addressed cache (a full-detail twin submitted first must not
// serve it warm), while a structurally invalid schedule is rejected at
// admission rather than deep inside the engine.
func TestSubmitSampledCell(t *testing.T) {
	_, ts := openTest(t, testConfig(t))

	if resp, sr := submit(t, ts, `{"id":"full","cells":[
		{"id":"a","workload":"spec.stream_s00"}],"wait_ms":15000}`); resp.StatusCode != http.StatusOK || sr.State != JobDone {
		t.Fatalf("full submit: %d %s", resp.StatusCode, sr.State)
	}
	resp, sr := submit(t, ts, `{"id":"sampled","cells":[
		{"id":"a","workload":"spec.stream_s00","config":{"Sample":{"enabled":true}}}],"wait_ms":15000}`)
	if resp.StatusCode != http.StatusOK || sr.State != JobDone {
		t.Fatalf("sampled submit: %d %s (error %q)", resp.StatusCode, sr.State, sr.JobStatus.Error)
	}
	if sr.Result == nil || sr.Result.Simulated != 1 {
		t.Fatalf("sampled result = %+v, want 1 fresh simulation (no aliasing with the full-detail twin)", sr.Result)
	}

	resp, _ = submit(t, ts, `{"id":"badsched","cells":[
		{"id":"a","workload":"spec.stream_s00","config":{"Sample":{"enabled":true,"interval_instrs":5000,"period_instrs":1000}}}]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid schedule status = %d, want 400", resp.StatusCode)
	}
}

func TestIdempotentSubmit(t *testing.T) {
	s, ts := openTest(t, testConfig(t))
	body := `{"id":"idem","cells":[{"id":"a","workload":"spec.stream_s00"}],"wait_ms":15000}`
	if resp, sr := submit(t, ts, body); resp.StatusCode != http.StatusOK || sr.State != JobDone {
		t.Fatalf("first submit: %d %s", resp.StatusCode, sr.State)
	}
	resp, sr := submit(t, ts, body)
	if resp.StatusCode != http.StatusOK || sr.State != JobDone {
		t.Fatalf("re-submit: %d %s, want existing done job", resp.StatusCode, sr.State)
	}
	if got := s.met.submitted.Load(); got != 1 {
		t.Fatalf("jobs.submitted = %d, want 1 (idempotent)", got)
	}
}

func TestQuotaRejection(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxJobsPerClient = 1
	cfg.JobConcurrency = 1
	// Stall every attempt long enough that the first job is still active
	// when the second submit arrives.
	cfg.Chaos = faultinject.NewExec(faultinject.ExecConfig{StallEveryN: 1, StallFor: 300 * time.Millisecond})
	s, ts := openTest(t, cfg)

	if resp, _ := submit(t, ts, `{"id":"j1","cells":[{"id":"a","workload":"spec.stream_s00"}]}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit status = %d, want 202", resp.StatusCode)
	}
	resp, _ := submit(t, ts, `{"id":"j2","cells":[{"id":"a","workload":"spec.stream_s00"}]}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("over-quota response missing Retry-After")
	}
	if s.met.rejQuota.Load() != 1 {
		t.Fatalf("rejected.quota = %d, want 1", s.met.rejQuota.Load())
	}
	waitTerminal(t, ts, "j1", 15*time.Second)
}

func TestQueueBackpressure(t *testing.T) {
	cfg := testConfig(t)
	cfg.JobConcurrency = 1
	cfg.QueueDepth = 1
	cfg.Chaos = faultinject.NewExec(faultinject.ExecConfig{StallEveryN: 1, StallFor: 300 * time.Millisecond})
	s, ts := openTest(t, cfg)

	// First job occupies the single runner...
	submit(t, ts, `{"id":"run","cells":[{"id":"a","workload":"spec.stream_s00"}]}`)
	deadline := time.Now().Add(5 * time.Second)
	for getStatus(t, ts, "run").State != JobRunning {
		if time.Now().After(deadline) {
			t.Fatal("first job never started running")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// ...the second fills the queue...
	if resp, _ := submit(t, ts, `{"id":"q1","cells":[{"id":"a","workload":"spec.stream_s00"}]}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit status = %d, want 202", resp.StatusCode)
	}
	// ...and the third must be refused with explicit backpressure.
	resp, _ := submit(t, ts, `{"id":"q2","cells":[{"id":"a","workload":"spec.stream_s00"}]}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue-full status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("queue-full response missing Retry-After")
	}
	if s.met.rejQueue.Load() != 1 {
		t.Fatalf("rejected.queue_full = %d, want 1", s.met.rejQueue.Load())
	}
	// readyz reflects the saturation.
	rz, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatalf("readyz: %v", err)
	}
	rz.Body.Close()
	if rz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated readyz = %d, want 503", rz.StatusCode)
	}
	waitTerminal(t, ts, "run", 15*time.Second)
	waitTerminal(t, ts, "q1", 15*time.Second)
}

func TestCancel(t *testing.T) {
	cfg := testConfig(t)
	cfg.JobConcurrency = 1
	cfg.Chaos = faultinject.NewExec(faultinject.ExecConfig{StallEveryN: 1, StallFor: 200 * time.Millisecond})
	_, ts := openTest(t, cfg)

	submit(t, ts, `{"id":"victim","cells":[{"id":"a","workload":"spec.stream_s00"}]}`)
	submit(t, ts, `{"id":"queued","cells":[{"id":"a","workload":"spec.stream_s00"}]}`)

	del := func(id string) submitResponse {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/campaigns/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("DELETE %s: %v", id, err)
		}
		defer resp.Body.Close()
		var sr submitResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatalf("decoding DELETE response: %v", err)
		}
		return sr
	}

	// Cancelling a queued job retires it immediately.
	if sr := del("queued"); sr.State != JobCanceled {
		t.Fatalf("queued cancel state = %s, want canceled", sr.State)
	}
	// Cancelling the running job interrupts its campaign.
	del("victim")
	if sr := waitTerminal(t, ts, "victim", 15*time.Second); sr.State != JobCanceled {
		t.Fatalf("running cancel state = %s, want canceled", sr.State)
	}
	// Cancel is idempotent on terminal jobs.
	if sr := del("victim"); sr.State != JobCanceled {
		t.Fatalf("re-cancel state = %s, want canceled", sr.State)
	}
}

func TestDrainInterruptsAndRecoveryResumes(t *testing.T) {
	cfg := testConfig(t)
	cfg.JobConcurrency = 1
	cfg.DrainGrace = 50 * time.Millisecond
	// Slow the campaign down so the drain lands mid-flight: every cell
	// stalls briefly before simulating.
	cfg.Chaos = faultinject.NewExec(faultinject.ExecConfig{StallEveryN: 1, StallFor: 150 * time.Millisecond})
	s, ts := openTest(t, cfg)

	body := `{"id":"big","cells":[
		{"id":"a","workload":"spec.stream_s00"},
		{"id":"b","workload":"spec.pagehop_s00"},
		{"id":"c","workload":"gap.graph_s00"},
		{"id":"d","workload":"spec.stream_s01"}]}`
	if resp, _ := submit(t, ts, body); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit failed")
	}

	// Wait for at least one cell to be checkpointed, then drain.
	deadline := time.Now().Add(10 * time.Second)
	for getStatus(t, ts, "big").Progress.Done < 1 {
		if time.Now().After(deadline) {
			t.Fatal("no cell completed before drain")
		}
		time.Sleep(10 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	sr := getStatus(t, ts, "big")
	if sr.State != JobInterrupted {
		t.Fatalf("post-drain state = %s, want interrupted", sr.State)
	}
	checkpointed := sr.Progress.Done - sr.Progress.Failed

	// While draining, new submissions are refused.
	resp, _ := submit(t, ts, `{"cells":[{"id":"x","workload":"spec.stream_s00"}]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", resp.StatusCode)
	}

	// A new process over the same state dir re-admits the job and resumes
	// it from the cache instead of recomputing.
	cfg2 := cfg
	cfg2.Chaos = nil
	s2, ts2 := openTest(t, cfg2)
	sr2 := waitTerminal(t, ts2, "big", 30*time.Second)
	if sr2.State != JobDone {
		t.Fatalf("recovered job state = %s (error %q), want done", sr2.State, sr2.JobStatus.Error)
	}
	if sr2.Result == nil || len(sr2.Result.Runs) != 4 {
		t.Fatalf("recovered result incomplete: %+v", sr2.Result)
	}
	if sr2.Result.CacheHits < checkpointed || sr2.Result.Simulated >= 4 {
		t.Fatalf("recovery served %d cells from the cache and simulated %d, want >= %d hits (checkpointed before drain) and < 4 simulated",
			sr2.Result.CacheHits, sr2.Result.Simulated, checkpointed)
	}
	if got := s2.met.recovered.Load(); got != 1 {
		t.Fatalf("jobs.recovered = %d, want 1", got)
	}
}

func TestHealthzWatchdog(t *testing.T) {
	cfg := testConfig(t)
	cfg.StallAfter = time.Minute
	s, ts := openTest(t, cfg)

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("idle healthz = %d, want 200", hz.StatusCode)
	}

	// Plant a running job whose last heartbeat is ancient: the watchdog
	// must trip.
	j := newJob(jobRecord{ID: "stuck", State: JobRunning}, nil)
	j.lastBeat = time.Now().Add(-time.Hour)
	s.mu.Lock()
	s.jobs["stuck"] = j
	s.mu.Unlock()
	hz2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	body, _ := io.ReadAll(hz2.Body)
	hz2.Body.Close()
	if hz2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stalled healthz = %d, want 503", hz2.StatusCode)
	}
	if !strings.Contains(string(body), "stuck") {
		t.Fatalf("stalled healthz body %q does not name the job", body)
	}
	s.mu.Lock()
	delete(s.jobs, "stuck")
	s.mu.Unlock()
}

func TestMetricz(t *testing.T) {
	_, ts := openTest(t, testConfig(t))
	submit(t, ts, `{"id":"m","cells":[{"id":"a","workload":"spec.stream_s00"}],"wait_ms":15000}`)
	resp, err := http.Get(ts.URL + "/metricz")
	if err != nil {
		t.Fatalf("metricz: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"daemon.jobs.submitted", "daemon.queue.depth", "daemon.cells.simulated"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metricz missing %q", want)
		}
	}
}

// TestHTTPRequestsCountedConcurrently drives the request counter from many
// goroutines while the registry is read: every request must count once in
// the snapshot (run under -race, this also checks the view's reads).
func TestHTTPRequestsCountedConcurrently(t *testing.T) {
	s, ts := openTest(t, testConfig(t))
	const goroutines, perG = 8, 25
	requests := func() uint64 {
		v, ok := s.Registry().Snapshot().Value("daemon.http.requests")
		if !ok {
			t.Error("snapshot has no daemon.http.requests")
		}
		return v
	}
	stop := make(chan struct{})
	read := make(chan struct{})
	go func() {
		defer close(read)
		for {
			select {
			case <-stop:
				return
			default:
				requests()
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				resp, err := ts.Client().Get(ts.URL + "/healthz")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-read
	if got := requests(); got != goroutines*perG {
		t.Fatalf("daemon.http.requests = %d, want %d", got, goroutines*perG)
	}
}

func TestEventsStream(t *testing.T) {
	cfg := testConfig(t)
	cfg.Chaos = faultinject.NewExec(faultinject.ExecConfig{StallEveryN: 1, StallFor: 100 * time.Millisecond})
	_, ts := openTest(t, cfg)
	submit(t, ts, `{"id":"ev","cells":[
		{"id":"a","workload":"spec.stream_s00"},
		{"id":"b","workload":"spec.pagehop_s00"}]}`)

	resp, err := http.Get(ts.URL + "/v1/campaigns/ev/events?interval_ms=50")
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	defer resp.Body.Close()
	var last JobStatus
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines++
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("event line %d: %v", lines, err)
		}
	}
	if lines < 2 {
		t.Fatalf("got %d event lines, want >= 2 (initial + terminal)", lines)
	}
	if !last.State.terminal() {
		t.Fatalf("final event state = %s, want terminal", last.State)
	}
	if last.Progress.Done != 2 {
		t.Fatalf("final event progress = %+v, want Done=2", last.Progress)
	}
}

func TestRateLimiter(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	l := newRateLimiter(2, 3, clock)

	for i := 0; i < 3; i++ {
		if ok, _ := l.allow("c"); !ok {
			t.Fatalf("burst request %d denied", i)
		}
	}
	ok, retry := l.allow("c")
	if ok {
		t.Fatal("request beyond burst allowed")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retryAfter = %s, want (0, 1s]", retry)
	}
	// Other clients are unaffected.
	if ok, _ := l.allow("other"); !ok {
		t.Fatal("independent client denied")
	}
	// Tokens refill with the clock.
	now = now.Add(time.Second)
	if ok, _ := l.allow("c"); !ok {
		t.Fatal("request after refill denied")
	}
	// The bucket map stays bounded under an identity-spray attack.
	now = now.Add(time.Hour)
	for i := 0; i < 3*maxClients; i++ {
		l.allow(fmt.Sprintf("spray-%d", i))
	}
	if n := l.clients(); n > maxClients+1 {
		t.Fatalf("bucket map grew to %d, want <= %d", n, maxClients+1)
	}
}

func TestRateLimitRejection(t *testing.T) {
	cfg := testConfig(t)
	cfg.RatePerSec = 1
	cfg.Burst = 1
	s, ts := openTest(t, cfg)
	submit(t, ts, `{"id":"ok","cells":[{"id":"a","workload":"spec.stream_s00"}],"wait_ms":15000}`)
	resp, _ := submit(t, ts, `{"id":"no","cells":[{"id":"a","workload":"spec.stream_s00"}]}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("rate-limited status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("rate-limited response missing Retry-After")
	}
	if s.met.rejRate.Load() != 1 {
		t.Fatalf("rejected.rate_limited = %d, want 1", s.met.rejRate.Load())
	}
}

func TestCompileRecoveryFailure(t *testing.T) {
	// A job persisted as queued must not vanish if it no longer passes
	// admission after a restart (e.g. limits tightened): it surfaces as
	// failed with an explanatory error.
	cfg := testConfig(t)
	cfg.JobConcurrency = 1
	cfg.Chaos = faultinject.NewExec(faultinject.ExecConfig{StallEveryN: 1, StallFor: 300 * time.Millisecond})
	s, ts := openTest(t, cfg)
	submit(t, ts, `{"id":"doomed","cells":[{"id":"a","workload":"spec.stream_s00"}]}`)
	s.Close()
	ts.Close()

	cfg2 := cfg
	cfg2.Chaos = nil
	cfg2.MaxInstrs = 1 // nothing passes admission now
	s2, ts2 := openTest(t, cfg2)
	_ = s2
	sr := waitTerminal(t, ts2, "doomed", 5*time.Second)
	if sr.State != JobFailed || !strings.Contains(sr.JobStatus.Error, "not re-admissible") {
		t.Fatalf("state = %s error %q, want failed/not re-admissible", sr.State, sr.JobStatus.Error)
	}
}
