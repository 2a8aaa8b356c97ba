// Command pgcd is the page-crossing simulation daemon: a long-running
// HTTP/JSON service that admits campaign specs, runs them on a bounded
// multi-tenant job queue, and serves memoized results from the shared
// content-addressed cache.
//
//	pgcd -listen :8437 -state /var/lib/pgcd -cache /var/cache/pgc
//
// Submit a campaign, then poll it:
//
//	curl -s localhost:8437/v1/campaigns -d '{"cells":[{"id":"c0","workload":"stream_s00"}]}'
//	curl -s localhost:8437/v1/campaigns/<id>
//	curl -s localhost:8437/v1/campaigns/<id>/result
//
// On SIGTERM (or SIGINT) the daemon drains: it stops admitting, gives
// in-flight campaigns a grace period, cancels the rest (every cell they
// completed is already checkpointed in the cache, so the next start
// resumes them), and exits 0. A second signal skips the drain and exits 130.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/daemon"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "pgcd: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listen     = flag.String("listen", "127.0.0.1:8437", "address to serve the HTTP API on")
		stateDir   = flag.String("state", "pgcd-state", "directory for job records")
		cacheDir   = flag.String("cache", "", "content-addressed result cache directory, also the jobs' checkpoint (empty: <state>/cache)")
		workers    = flag.Int("workers", 0, "campaign worker-pool width per job (0: NumCPU)")
		jobs       = flag.Int("jobs", 0, "jobs running concurrently (0: default)")
		queueDepth = flag.Int("queue", 0, "max queued jobs before 429 backpressure (0: default)")
		quota      = flag.Int("quota", 0, "max active jobs per client (0: default)")
		rate       = flag.Float64("rate", 0, "per-client request rate limit, tokens/sec (0: default)")
		burst      = flag.Int("burst", 0, "per-client rate-limit burst (0: default)")
		maxCells   = flag.Int("max-cells", 0, "max cells per campaign (0: default)")
		warmup     = flag.Uint64("warmup", 0, "default warmup instructions per cell (0: default)")
		instrs     = flag.Uint64("instrs", 0, "default measured instructions per cell (0: default)")
		deadline   = flag.Duration("deadline", 0, "default per-campaign deadline (0: default)")
		drainGrace = flag.Duration("drain-grace", 0, "grace period for in-flight jobs on drain (0: default)")
	)
	flag.Parse()

	cfg := daemon.DefaultConfig(*stateDir)
	cfg.CacheDir = *cacheDir
	if *workers > 0 {
		cfg.Workers = *workers
	}
	if *jobs > 0 {
		cfg.JobConcurrency = *jobs
	}
	if *queueDepth > 0 {
		cfg.QueueDepth = *queueDepth
	}
	if *quota > 0 {
		cfg.MaxJobsPerClient = *quota
	}
	if *rate > 0 {
		cfg.RatePerSec = *rate
	}
	if *burst > 0 {
		cfg.Burst = *burst
	}
	if *maxCells > 0 {
		cfg.MaxCells = *maxCells
	}
	if *warmup > 0 {
		cfg.DefaultWarmup = *warmup
	}
	if *instrs > 0 {
		cfg.DefaultInstrs = *instrs
	}
	if *deadline > 0 {
		cfg.DefaultDeadline = *deadline
	}
	if *drainGrace > 0 {
		cfg.DrainGrace = *drainGrace
	}
	srv, err := daemon.Open(cfg)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		srv.Close()
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	fmt.Printf("pgcd: serving on http://%s (state %s)\n", ln.Addr(), *stateDir)

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	// First signal drains gracefully; a second one means the operator has
	// lost patience — signal.NotifyContext would swallow it, so watch the
	// channel directly and hard-exit.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)

	select {
	case err := <-serveErr:
		srv.Close()
		return err
	case sig := <-sigs:
		fmt.Printf("pgcd: %s: draining (second signal exits immediately)\n", sig)
	}
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "pgcd: second signal: exiting without drain")
		os.Exit(130)
	}()

	// Stop admitting before stopping listening, so in-flight requests see
	// 503 draining rather than connection resets.
	drainCtx, cancel := context.WithTimeout(context.Background(), cfg.DrainGrace+30*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		return err
	}
	if err := hs.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		hs.Close()
	}
	fmt.Println("pgcd: drained; unfinished campaigns are checkpointed for resume")
	return nil
}
