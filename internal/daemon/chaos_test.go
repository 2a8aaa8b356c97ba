package daemon

// The chaos soak: the daemon under execution-layer fault injection
// (transient cell failures, stalls), cache corruption, hostile clients
// (over-quota bursts, mid-flight disconnects), and repeated restarts —
// graceful drains and hard stops — mid-campaign. The harness asserts the
// ISSUE's hard invariants:
//
//   - no lost jobs: every admitted job reaches a terminal state, across
//     any number of restarts;
//   - no duplicated jobs: idempotent re-submits never create a second job
//     or a second simulation of the same campaign;
//   - byte-identical results: every completed campaign's runs match a
//     fault-free baseline byte for byte;
//   - no leaked goroutines: after the soak the process is back to its
//     starting goroutine count.
//
// `go test` runs a short soak; `make soak` (PGCD_SOAK=30s) runs the long
// one under -race.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// soakDuration reads the soak budget from PGCD_SOAK (a Go duration);
// the default keeps `go test ./...` fast.
func soakDuration(t *testing.T) time.Duration {
	if v := os.Getenv("PGCD_SOAK"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			t.Fatalf("PGCD_SOAK=%q: %v", v, err)
		}
		return d
	}
	return 3 * time.Second
}

// soakCampaigns builds the tracked campaign set: nCamps campaigns of
// nCells cells each, every cell with a distinct warmup so every cell has a
// distinct content key.
func soakCampaigns(nCamps, nCells int) []string {
	workloads := []string{"spec.stream_s00", "spec.pagehop_s00", "gap.graph_s00", "spec.stream_s01"}
	bodies := make([]string, nCamps)
	for i := 0; i < nCamps; i++ {
		var cells []string
		for c := 0; c < nCells; c++ {
			cells = append(cells, fmt.Sprintf(
				`{"id":"cell%02d","workload":"%s","config":{"WarmupInstrs":%d,"SimInstrs":20000}}`,
				c, workloads[(i+c)%len(workloads)], 1000+100*(i*nCells+c)))
		}
		bodies[i] = fmt.Sprintf(`{"id":"camp-%d","cells":[%s]}`, i, strings.Join(cells, ","))
	}
	return bodies
}

func soakConfig(t *testing.T, stateDir, cacheDir string) Config {
	cfg := DefaultConfig(stateDir)
	cfg.CacheDir = cacheDir
	cfg.Workers = 2
	cfg.JobConcurrency = 2
	cfg.QueueDepth = 16
	cfg.MaxJobsPerClient = 6
	cfg.RatePerSec = 50
	cfg.Burst = 20
	cfg.Retries = 8 // outlast streaks of injected transient failures
	cfg.RetryBackoff = time.Millisecond
	cfg.DefaultDeadline = 2 * time.Minute
	cfg.MaxWait = 20 * time.Second
	cfg.DrainGrace = 150 * time.Millisecond
	cfg.Logf = func(string, ...any) {}
	return cfg
}

// soakClient wraps the HTTP traffic of one soak generation.
type soakClient struct {
	t        *testing.T
	base     string
	client   *http.Client
	rejected atomic.Int64 // 429/503 responses observed (expected under hostility)
}

func (c *soakClient) post(clientID, body string) (int, submitResponse) {
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/campaigns", strings.NewReader(body))
	if err != nil {
		c.t.Fatalf("building request: %v", err)
	}
	req.Header.Set("X-Client-ID", clientID)
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, submitResponse{} // server mid-restart; callers tolerate
	}
	defer resp.Body.Close()
	var sr submitResponse
	_ = json.NewDecoder(resp.Body).Decode(&sr)
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		c.rejected.Add(1)
	}
	return resp.StatusCode, sr
}

// hostileBurst fires concurrent over-quota submissions from one client;
// some must be admitted, the excess must bounce off quota or rate limits.
func (c *soakClient) hostileBurst(gen, n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		body := fmt.Sprintf(
			`{"cells":[{"id":"h","workload":"spec.stream_s00","config":{"WarmupInstrs":999,"SimInstrs":20000}}],"name":"hostile-%d-%d"}`,
			gen, i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.post("hostile", body)
		}()
	}
	wg.Wait()
}

// disconnect opens a request and abandons it mid-flight: an events stream
// dropped after ~30ms, and a submit whose wait is cut short. Neither may
// disturb the job.
func (c *soakClient) disconnect(id string) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/v1/campaigns/"+id+"/events?interval_ms=50", nil)
	if resp, err := c.client.Do(req); err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// corruptCacheEntry flips bytes in one cached result file; the store must
// treat it as a miss and re-simulate, never crash or serve garbage.
func corruptCacheEntry(t *testing.T, cacheDir string, gen int) {
	var files []string
	_ = filepath.WalkDir(cacheDir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			files = append(files, path)
		}
		return nil
	})
	if len(files) == 0 {
		return
	}
	path := files[gen%len(files)]
	if err := os.WriteFile(path, []byte("corrupted by chaos soak"), 0o644); err != nil {
		t.Fatalf("corrupting %s: %v", path, err)
	}
}

func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	budget := soakDuration(t)
	nCamps, nCells := 4, 6
	bodies := soakCampaigns(nCamps, nCells)
	httpClient := &http.Client{Timeout: 30 * time.Second}

	startGoroutines := runtime.NumGoroutine()

	// Phase 1: fault-free baseline. Every tracked campaign's runs, as
	// canonical JSON, are the reference the chaos run must reproduce
	// byte for byte.
	baseline := make(map[string][]byte)
	{
		cfg := soakConfig(t, t.TempDir(), filepath.Join(t.TempDir(), "cache"))
		s, err := Open(cfg)
		if err != nil {
			t.Fatalf("baseline Open: %v", err)
		}
		ts := httptest.NewServer(s.Handler())
		sc := &soakClient{t: t, base: ts.URL, client: httpClient}
		for i, body := range bodies {
			code, sr := sc.post("soak", strings.TrimSuffix(body, "}")+`,"wait_ms":20000}`)
			if code != http.StatusOK || sr.State != JobDone {
				t.Fatalf("baseline campaign %d: code %d state %s error %q", i, code, sr.State, sr.JobStatus.Error)
			}
			b, err := json.Marshal(sr.Result.Runs)
			if err != nil {
				t.Fatalf("marshaling baseline runs: %v", err)
			}
			baseline[fmt.Sprintf("camp-%d", i)] = b
		}
		s.Close()
		ts.Close()
	}

	// Phase 2: the soak. One state dir and one cache dir survive every
	// restart; the injector fails every 3rd and stalls every 7th attempt.
	stateDir := t.TempDir()
	cacheDir := filepath.Join(t.TempDir(), "cache")
	chaos := faultinject.NewExec(faultinject.ExecConfig{
		FailEveryN: 3, StallEveryN: 7, StallFor: 20 * time.Millisecond,
	})
	deadline := time.Now().Add(budget)
	rejected, generations := 0, 0

	for gen := 0; time.Now().Before(deadline); gen++ {
		generations++
		cfg := soakConfig(t, stateDir, cacheDir)
		cfg.Chaos = chaos
		s, err := Open(cfg)
		if err != nil {
			t.Fatalf("gen %d Open: %v", gen, err)
		}
		ts := httptest.NewServer(s.Handler())
		sc := &soakClient{t: t, base: ts.URL, client: httpClient}

		// Re-submit every tracked campaign; idempotency makes this a
		// no-op for IDs the daemon already knows.
		for _, body := range bodies {
			if code, _ := sc.post("soak", body); code == http.StatusBadRequest {
				t.Fatalf("gen %d: tracked campaign rejected as invalid", gen)
			}
		}
		// Hostile traffic: an over-quota burst and dropped connections.
		sc.hostileBurst(gen, 30)
		sc.disconnect("camp-0")
		sc.disconnect(fmt.Sprintf("camp-%d", gen%nCamps))

		// Let the generation make some progress, then kill it mid-flight:
		// even generations drain gracefully (checkpoint + interrupted),
		// odd ones stop hard (Close cancels everything in flight).
		time.Sleep(150 * time.Millisecond)
		if gen%2 == 0 {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			if err := s.Drain(ctx); err != nil {
				t.Fatalf("gen %d Drain: %v", gen, err)
			}
			cancel()
		}
		s.Close()
		ts.Close()
		rejected += int(sc.rejected.Load())

		// Simulate a crash that died before its final persist: rewind one
		// non-terminal-looking record to "running" so recovery must
		// re-admit it from a stale state.
		if gen%3 == 1 {
			rewindOneRecord(t, stateDir)
		}
		// And corrupt a cached result between generations.
		corruptCacheEntry(t, cacheDir, gen)
	}

	// Phase 3: a final fault-free generation runs everything to
	// completion and must reproduce the baseline exactly.
	cfg := soakConfig(t, stateDir, cacheDir)
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("final Open: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	sc := &soakClient{t: t, base: ts.URL, client: httpClient}
	for _, body := range bodies {
		sc.post("soak", body) // re-admit anything canceled by a hard stop
	}

	// Every job the soak ever admitted — tracked and hostile — must reach
	// a terminal state: no lost jobs.
	var final []JobStatus
	waitUntil := time.Now().Add(60 * time.Second)
	for {
		resp, err := httpClient.Get(ts.URL + "/v1/campaigns")
		if err != nil {
			t.Fatalf("final list: %v", err)
		}
		final = final[:0]
		if err := json.NewDecoder(resp.Body).Decode(&final); err != nil {
			t.Fatalf("decoding final list: %v", err)
		}
		resp.Body.Close()
		pending := 0
		for _, j := range final {
			if !j.State.terminal() {
				pending++
			}
		}
		if pending == 0 {
			break
		}
		if time.Now().After(waitUntil) {
			t.Fatalf("%d jobs still non-terminal after soak: %+v", pending, final)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// No duplicated jobs: every ID appears once in the daemon and once on
	// disk, and the number of persisted records matches the daemon's view.
	seen := map[string]bool{}
	for _, j := range final {
		if seen[j.ID] {
			t.Fatalf("job %s appears twice in the final listing", j.ID)
		}
		seen[j.ID] = true
	}
	entries, err := os.ReadDir(jobsDir(stateDir))
	if err != nil {
		t.Fatalf("reading job records: %v", err)
	}
	if len(entries) != len(final) {
		t.Fatalf("%d job records on disk, %d jobs in daemon", len(entries), len(final))
	}

	// Tracked campaigns completed with byte-identical results.
	for i := 0; i < nCamps; i++ {
		id := fmt.Sprintf("camp-%d", i)
		sr := waitTerminal(t, ts, id, time.Minute)
		if sr.State != JobDone {
			t.Fatalf("campaign %s: state %s error %q, want done", id, sr.State, sr.JobStatus.Error)
		}
		if sr.Result == nil {
			t.Fatalf("campaign %s: no result", id)
		}
		if got := sr.Result.Simulated + sr.Result.CacheHits; got != nCells {
			t.Fatalf("campaign %s: %d cells accounted (sim %d + hits %d), want %d",
				id, got, sr.Result.Simulated, sr.Result.CacheHits, nCells)
		}
		b, err := json.Marshal(sr.Result.Runs)
		if err != nil {
			t.Fatalf("marshaling %s runs: %v", id, err)
		}
		if !bytes.Equal(b, baseline[id]) {
			t.Fatalf("campaign %s: results differ from fault-free baseline", id)
		}
	}

	// The hostile client was actually rejected at least once (quota, rate
	// limit, queue, or drain) — otherwise the soak exercised nothing.
	if rejected == 0 {
		t.Errorf("soak observed zero rejections across %d generations; hostility too gentle", generations)
	}
	if chaos.Failed() == 0 || chaos.Stalled() == 0 {
		t.Errorf("injector fired too little: %d failures, %d stalls", chaos.Failed(), chaos.Stalled())
	}
	t.Logf("soak: %d generations, %d rejections, injector: %d attempts %d failed %d stalled",
		generations, rejected, chaos.Attempts(), chaos.Failed(), chaos.Stalled())

	// No leaked goroutines: everything the soak started must be gone.
	s.Close()
	ts.Close()
	httpClient.CloseIdleConnections()
	leakDeadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > startGoroutines+3 {
		if time.Now().After(leakDeadline) {
			var buf bytes.Buffer
			_ = pprof.Lookup("goroutine").WriteTo(&buf, 1)
			t.Fatalf("goroutine leak: started with %d, ended with %d\n%s",
				startGoroutines, runtime.NumGoroutine(), buf.String())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// rewindOneRecord rewrites one interrupted job record to state "running" —
// the on-disk shape a crash leaves when the process died before its final
// persist. Recovery must treat it exactly like an interrupted job.
func rewindOneRecord(t *testing.T, stateDir string) {
	entries, err := os.ReadDir(jobsDir(stateDir))
	if err != nil {
		return
	}
	for _, e := range entries {
		path := filepath.Join(jobsDir(stateDir), e.Name())
		b, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		var rec jobRecord
		if json.Unmarshal(b, &rec) != nil || rec.State != JobInterrupted {
			continue
		}
		rec.State = JobRunning
		nb, err := json.MarshalIndent(&rec, "", " ")
		if err != nil {
			t.Fatalf("re-encoding record: %v", err)
		}
		if err := os.WriteFile(path, nb, 0o644); err != nil {
			t.Fatalf("rewinding record: %v", err)
		}
		return
	}
}
