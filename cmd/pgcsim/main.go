// Command pgcsim runs one workload on the simulated system and reports the
// statistics the paper's analysis is built on: IPC, per-level MPKIs,
// prefetch coverage/accuracy, page-cross usefulness and page-walk counts.
//
// Examples:
//
//	pgcsim -workload gap.graph_s00 -prefetcher berti -policy dripper
//	pgcsim -workload spec.pagehop_s00 -policy permit -instrs 1000000
//	pgcsim -workload-file workloads.wdl -policy dripper
//	pgcsim -champsim-trace 600.perlbench_s-210B.champsimtrace -sample
//	pgcsim -list
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime/pprof"
	"strings"
	"syscall"

	"repro/internal/campaign"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wdl"
)

func main() {
	var (
		workload   = flag.String("workload", "spec.stream_s00", "workload name (see -list)")
		prefetcher = flag.String("prefetcher", "berti", "L1D prefetcher: "+strings.Join(sim.PrefetcherNames("l1d"), "|")+"|none")
		l2pf       = flag.String("l2-prefetcher", "none", "L2C prefetcher: "+strings.Join(sim.PrefetcherNames("l2c"), "|")+"|none")
		policy     = flag.String("policy", "dripper", "page-cross policy: "+strings.Join(sim.PolicyNames(), "|"))
		warmup     = flag.Uint64("warmup", 250_000, "warmup instructions")
		instrs     = flag.Uint64("instrs", 250_000, "measured instructions")
		largePages = flag.Bool("large-pages", false, "back half the address space with 2MB pages")
		traceFile  = flag.String("trace", "", "run a recorded .pgct trace file instead of a named workload")
		wdlFile    = flag.String("workload-file", "", "run a workload described in a .wdl file (\"-\" reads stdin); with -workload, selects that name from the file")
		champsim   = flag.String("champsim-trace", "", "replay a ChampSim-format trace file (.champsimtrace, optionally .gz)")
		list       = flag.Bool("list", false, "list all workloads and exit")
		timeout    = flag.Duration("timeout", 0, "wall-clock budget, e.g. 5m (0 = none); partial statistics are printed on expiry or Ctrl-C")
		metricsOut = flag.String("metrics-out", "", "write the full metrics snapshot as JSON to this file")
		traceOut   = flag.String("trace-out", "", "write the event trace as JSONL to this file (enables the tracer)")
		traceCap   = flag.Int("trace-cap", 1<<16, "event-trace ring-buffer capacity (with -trace-out)")
		pprofOut   = flag.String("pprof", "", "write a CPU profile of the simulation to this file")
		sampled    = flag.Bool("sample", false, "interval-sampled simulation (fast mode): short measured intervals separated by functional-warmup gaps; see README for the accuracy caveats")
		sampleIvl  = flag.Uint64("sample-interval", 0, "with -sample, measured-interval length in instructions (0 = default)")
		samplePer  = flag.Uint64("sample-period", 0, "with -sample, sampling period in instructions (0 = default)")
		sampleRamp = flag.Uint64("sample-ramp", 0, "with -sample, detailed ramp before each interval in instructions (0 = default)")
		sampleSeed = flag.Uint64("sample-seed", 0, "with -sample, interval-placement seed (0 = derive from the workload)")
		check      = flag.Bool("check", false, "run the lockstep functional oracle and invariant sweeps; violations fail the run")
		checkFF    = flag.Bool("check-failfast", false, "with -check, abort at the first violation instead of accumulating")
		cacheDir   = flag.String("cache-dir", "", "content-addressed result cache shared with cmd/experiments; a hit skips the simulation (ignored when -metrics-out/-trace-out/-pprof/-trace need a live system)")
	)
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	hardExitOnSecondSignal()

	if *list {
		for _, w := range trace.All() {
			kind := "unseen"
			if w.Seen {
				kind = "seen"
			}
			if !w.MemoryIntensive {
				kind = "non-intensive"
			}
			fmt.Printf("%-24s suite=%-8s %s weight=%.2f\n", w.Name, w.Suite, kind, w.Weight)
		}
		return
	}

	cfg := sim.DefaultConfig()
	cfg.L1DPrefetcher = *prefetcher
	cfg.L2CPrefetcher = *l2pf
	cfg.Policy = sim.PolicyKind(*policy)
	cfg.WarmupInstrs = *warmup
	cfg.SimInstrs = *instrs
	if *largePages {
		cfg.VMem.LargePages = true
		cfg.VMem.LargePageFraction = 0.5
	}
	if *traceOut != "" {
		cfg.TraceCapacity = *traceCap
	}
	cfg.Sample = sim.SampleConfig{
		Enabled:        *sampled,
		IntervalInstrs: *sampleIvl,
		PeriodInstrs:   *samplePer,
		RampInstrs:     *sampleRamp,
		Seed:           *sampleSeed,
	}
	if err := cfg.Sample.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "pgcsim: %v\n", err)
		os.Exit(1)
	}
	cfg.Check = sim.CheckConfig{Enabled: *check || *checkFF, FailFast: *checkFF}

	if *pprofOut != "" {
		f, err := os.Create(*pprofOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pgcsim: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "pgcsim: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	// Exactly one instruction source: the registry (default), a .wdl file,
	// a ChampSim trace, or a recorded .pgct trace.
	sources := 0
	for _, s := range []string{*traceFile, *wdlFile, *champsim} {
		if s != "" {
			sources++
		}
	}
	if sources > 1 {
		fmt.Fprintln(os.Stderr, "pgcsim: -trace, -workload-file and -champsim-trace are mutually exclusive")
		os.Exit(1)
	}
	workloadNamed := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "workload" {
			workloadNamed = true
		}
	})
	var w trace.Workload
	if *traceFile == "" {
		var werr error
		switch {
		case *champsim != "":
			w, werr = trace.LoadChampSim(*champsim)
		case *wdlFile != "":
			w, werr = loadWorkloadFile(*wdlFile, *workload, workloadNamed)
		default:
			var ok bool
			if w, ok = trace.ByName(*workload); !ok {
				werr = fmt.Errorf("unknown workload %q (try -list)", *workload)
			}
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "pgcsim: %v\n", werr)
			os.Exit(1)
		}
	}

	// The result cache serves (and stores) finished statistics only; any
	// flag that needs the live system or observes the run itself (metrics
	// snapshot, event trace, CPU profile, ad-hoc trace files whose content
	// the key cannot see) bypasses it. WDL workloads participate through
	// their compiled generator config; ChampSim traces through their content
	// hash.
	var store *campaign.Store
	var cacheKey campaign.Key
	if *cacheDir != "" && *traceFile == "" && *metricsOut == "" && *traceOut == "" && *pprofOut == "" {
		s, serr := campaign.OpenStore(*cacheDir)
		if serr != nil {
			fmt.Fprintf(os.Stderr, "pgcsim: %v\n", serr)
			os.Exit(1)
		}
		if k, kerr := campaign.KeyOf(cfg, w); kerr == nil {
			store, cacheKey = s, k
			if runs, hit := s.Get(k); hit {
				fmt.Printf("(cached: %s)\n", k[:12])
				report(runs[0])
				return
			}
		}
	}

	var run *stats.Run
	var sys *sim.System
	var err error
	if *traceFile != "" {
		f, ferr := os.Open(*traceFile)
		if ferr != nil {
			fmt.Fprintf(os.Stderr, "pgcsim: %v\n", ferr)
			os.Exit(1)
		}
		instrs, rerr := trace.ReadTrace(f)
		f.Close()
		if rerr != nil {
			fmt.Fprintf(os.Stderr, "pgcsim: %v\n", rerr)
			os.Exit(1)
		}
		run, sys, err = sim.RunTraceSystem(ctx, cfg, *traceFile, "file", trace.NewSliceReader(instrs))
	} else {
		reader, rerr := w.NewReader()
		if rerr != nil {
			fmt.Fprintf(os.Stderr, "pgcsim: %v\n", rerr)
			os.Exit(1)
		}
		run, sys, err = sim.RunTraceSystem(ctx, cfg, w.Name, w.Suite, reader)
	}
	// Metrics and trace artifacts are written even for interrupted runs —
	// a partial snapshot is exactly what post-hoc stall diagnosis needs.
	writeArtifacts(sys, *metricsOut, *traceOut)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pgcsim: %v\n", err)
		// An interrupted measurement still returns the statistics collected
		// so far; print them clearly marked as partial.
		if run != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			fmt.Printf("-- partial results (interrupted mid-measurement) --\n")
			report(run)
		}
		if *pprofOut != "" {
			pprof.StopCPUProfile()
		}
		os.Exit(1)
	}
	if store != nil {
		if perr := store.Put(cacheKey, []*stats.Run{run}); perr != nil {
			fmt.Fprintf(os.Stderr, "pgcsim: cache: %v\n", perr)
		}
	}
	report(run)
}

// loadWorkloadFile compiles a .wdl file (or stdin for "-") and picks the
// workload to run: the file's only workload, or — when -workload was given
// explicitly — the one with that name.
func loadWorkloadFile(path, name string, named bool) (trace.Workload, error) {
	var src []byte
	var err error
	file := path
	if path == "-" {
		src, err = io.ReadAll(os.Stdin)
		file = "<stdin>"
	} else {
		src, err = os.ReadFile(path)
	}
	if err != nil {
		return trace.Workload{}, err
	}
	ws, err := wdl.ParseWorkloads(file, src)
	if err != nil {
		return trace.Workload{}, err
	}
	if len(ws) == 0 {
		return trace.Workload{}, fmt.Errorf("%s defines no workloads", file)
	}
	if !named {
		if len(ws) == 1 {
			return ws[0], nil
		}
		return trace.Workload{}, fmt.Errorf("%s defines %d workloads (%s); select one with -workload",
			file, len(ws), workloadNames(ws))
	}
	for _, w := range ws {
		if w.Name == name {
			return w, nil
		}
	}
	return trace.Workload{}, fmt.Errorf("workload %q not in %s (defines: %s)", name, file, workloadNames(ws))
}

func workloadNames(ws []trace.Workload) string {
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// writeArtifacts exports the system's metrics snapshot and event trace to
// the requested files. Failures are reported but not fatal: the run's
// results have already been computed.
func writeArtifacts(sys *sim.System, metricsOut, traceOut string) {
	if sys == nil {
		return
	}
	if metricsOut != "" {
		if f, err := os.Create(metricsOut); err != nil {
			fmt.Fprintf(os.Stderr, "pgcsim: metrics-out: %v\n", err)
		} else {
			if err := sys.Snapshot().WriteJSON(f); err != nil {
				fmt.Fprintf(os.Stderr, "pgcsim: metrics-out: %v\n", err)
			}
			f.Close()
		}
	}
	if traceOut != "" {
		if f, err := os.Create(traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "pgcsim: trace-out: %v\n", err)
		} else {
			if err := sys.Tracer.WriteJSONL(f); err != nil {
				fmt.Fprintf(os.Stderr, "pgcsim: trace-out: %v\n", err)
			}
			f.Close()
		}
	}
}

func report(r *stats.Run) {
	fmt.Printf("workload      %s (%s)\n", r.Workload, r.Suite)
	fmt.Printf("instructions  %d\n", r.Core.Instructions)
	fmt.Printf("cycles        %d\n", r.Core.Cycles)
	fmt.Printf("IPC           %.4f\n", r.IPC())
	fmt.Println()
	fmt.Printf("%-6s %10s %10s %10s %9s\n", "level", "accesses", "misses", "MPKI", "missrate")
	for _, lv := range []string{"l1i", "l1d", "l2c", "llc", "dtlb", "itlb", "stlb"} {
		cs := r.Cache(lv)
		fmt.Printf("%-6s %10d %10d %10.3f %8.1f%%\n",
			lv, cs.DemandAccesses, cs.DemandMisses, r.MPKI(lv), cs.MissRate()*100)
	}
	fmt.Println()
	fmt.Printf("prefetch fills      %d (useful %d, useless %d, accuracy %.1f%%)\n",
		r.L1D.PrefetchFills, r.L1D.UsefulPrefetches, r.L1D.UselessPrefetches,
		r.L1D.PrefetchAccuracy()*100)
	useful, useless := r.PGCPerKiloInstr()
	fmt.Printf("page-cross issued   %d (dropped %d)\n", r.L1D.PGCIssued, r.L1D.PGCDropped)
	fmt.Printf("page-cross useful   %d (%.2f/kinstr)   useless %d (%.2f/kinstr)   accuracy %.1f%%\n",
		r.L1D.PGCUseful, useful, r.L1D.PGCUseless, useless, r.L1D.PGCAccuracy()*100)
	fmt.Printf("page walks          %d demand, %d speculative (%d memory reads, %d PSC hits)\n",
		r.PTW.Walks, r.PTW.SpeculativeWalks, r.PTW.WalkMemAccesses, r.PTW.PSCHits)
}

// hardExitOnSecondSignal makes a second SIGINT/SIGTERM exit the process
// immediately with status 130. The first signal cancels the run's context
// for a graceful teardown, but signal.NotifyContext swallows every signal
// after that — without this escape hatch a teardown that hangs (a stuck
// filesystem flush, a wedged worker) cannot be interrupted from the
// terminal at all.
func hardExitOnSecondSignal() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs // the graceful one, also delivered to NotifyContext
		<-sigs // the operator has lost patience
		fmt.Fprintln(os.Stderr, "pgcsim: second signal: exiting immediately")
		os.Exit(130)
	}()
}
