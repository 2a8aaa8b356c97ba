// Command experiments regenerates the paper's tables and figures. Each
// experiment prints the rows/series of the corresponding table or figure.
//
// Examples:
//
//	experiments -exp fig9 -max-workloads 60 -instrs 200000
//	experiments -exp fig19 -cores 8 -mixes 50
//	experiments -exp all -max-workloads 24
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"syscall"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wdl"
)

func main() {
	var (
		exp       = flag.String("exp", "fig9", expUsage)
		warmup    = flag.Uint64("warmup", 100_000, "warmup instructions per workload")
		instrs    = flag.Uint64("instrs", 100_000, "measured instructions per workload")
		maxWl     = flag.Int("max-workloads", 40, "cap on workloads per set (0 = full set)")
		par       = flag.Int("parallel", 0, "concurrent simulations (0 = NumCPU)")
		cores     = flag.Int("cores", 8, "cores for fig19")
		mixes     = flag.Int("mixes", 20, "mixes for fig19")
		pf        = flag.String("prefetcher", "berti", "L1D prefetcher for single-prefetcher experiments: "+strings.Join(sim.PrefetcherNames("l1d"), "|")+"|none")
		asJSON    = flag.Bool("json", false, "emit results as JSON instead of text")
		timeout   = flag.Duration("timeout", 0, "overall wall-clock budget, e.g. 30m (0 = none); completed experiments are kept on expiry")
		outDir    = flag.String("out-dir", "", "write each experiment's report to <out-dir>/<name>.{txt,json} instead of stdout")
		pprofOut  = flag.String("pprof", "", "write a CPU profile of the campaign to this file")
		check     = flag.Bool("check", false, "run every simulation with the lockstep oracle and invariant sweeps; violations land in the failure ledger under stage \"check\"")
		cacheDir  = flag.String("cache-dir", "", "content-addressed result cache and checkpoint: completed (config, workload) cells are synced here as they finish, so a re-run with unchanged configs skips them and an interrupted campaign resumes")
		sampled   = flag.Bool("sample", false, "interval-sampled simulation (fast mode) for every run; sampled and full results never share cache entries")
		samplePer = flag.Uint64("sample-period", 0, "with -sample, sampling period in instructions (0 = default)")
		wdlFiles  = flag.String("workload-file", "", "comma-separated .wdl files; their workloads replace the registry set in workload-driven experiments")
		chpsTrcs  = flag.String("champsim-trace", "", "comma-separated ChampSim trace files, used as workloads in workload-driven experiments")
	)
	flag.Parse()

	custom, err := customWorkloads(*wdlFiles, *chpsTrcs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
	}
	if *pprofOut != "" {
		f, err := os.Create(*pprofOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	// Ctrl-C / SIGTERM (and -timeout) cancel the campaign context; running
	// matrices observe it at the simulator's watchdog poll grain, so
	// teardown is prompt and everything printed so far stands.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	hardExitOnSecondSignal()

	var cells tally
	o := experiments.Options{
		Warmup: *warmup, Instrs: *instrs,
		MaxWorkloads: *maxWl, Prefetcher: *pf,
		Ctx: ctx,
		Campaign: []campaign.Option{
			campaign.WithWorkers(*par), campaign.WithCache(*cacheDir), campaign.WithEvents(cells.observe),
		},
		Check:  sim.CheckConfig{Enabled: *check},
		Sample: sim.SampleConfig{Enabled: *sampled, PeriodInstrs: *samplePer},
	}
	if err := o.Sample.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}

	e := env{o: o, custom: custom, cores: *cores, mixes: *mixes}
	run := func(name string) error {
		x, err := lookup(name)
		if err != nil {
			return err
		}
		var out io.Writer = os.Stdout
		if *outDir != "" {
			ext := ".txt"
			if *asJSON {
				ext = ".json"
			}
			f, err := os.Create(filepath.Join(*outDir, name+ext))
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		return x.report(e, out, *asJSON)
	}

	names := []string{*exp}
	if *exp == "all" {
		names = expNames(true)
	}
	// os.Exit skips defers, so flush the CPU profile explicitly on the
	// error paths; completed profiles from a partial campaign are still
	// useful.
	exit := func(code int) {
		if *pprofOut != "" {
			pprof.StopCPUProfile()
		}
		os.Exit(code)
	}
	for i, n := range names {
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "experiments: interrupted (%v); %d/%d experiments completed above\n",
				ctx.Err(), i, len(names))
			exit(130)
		}
		fmt.Printf("==> %s (workloads<=%d, %d+%d instrs)\n", n, o.MaxWorkloads, o.Warmup, o.Instrs)
		if err := run(n); err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				fmt.Fprintf(os.Stderr, "experiments: %s interrupted (%v); %d/%d experiments completed above\n",
					n, err, i, len(names))
				exit(130)
			}
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", n, err)
			exit(1)
		}
		fmt.Println()
	}
	// Campaign accounting: `make campaign` asserts a warm-cache re-run
	// prints simulated=0 here.
	fmt.Printf("campaign: %s\n", &cells)
}

// tally counts the cells that retire across every campaign an invocation
// runs, by the terminal event each cell emits exactly once. Campaigns
// deliver events from their own sinks, so the counters are atomic.
type tally struct{ simulated, cached, failed atomic.Int64 }

func (t *tally) observe(ev campaign.Event) {
	switch ev.Kind {
	case campaign.EventCellCompleted:
		t.simulated.Add(1)
	case campaign.EventCellCached:
		t.cached.Add(1)
	case campaign.EventCellFailed:
		t.failed.Add(1)
	}
}

// String renders the counts as the final "campaign:" line, which
// `make campaign` and CI grep.
func (t *tally) String() string {
	return fmt.Sprintf("simulated=%d cached=%d failed=%d",
		t.simulated.Load(), t.cached.Load(), t.failed.Load())
}

// env is what every experiment runs with; cores and mixes shape fig19.
type env struct {
	o            experiments.Options
	custom       []trace.Workload
	cores, mixes int
}

// experiment is one entry of the -exp vocabulary. inAll puts it in -exp
// all, in table order; a noCustom experiment draws its own inputs and
// rejects -workload-file and -champsim-trace; title heads the text report.
type experiment struct {
	name            string
	run             func(env) (experiments.Printer, error)
	inAll, noCustom bool
	title           string
}

// overWorkloads adapts an experiment over a workload set to the table.
func overWorkloads[R experiments.Printer](f func(experiments.Options, []trace.Workload) (R, error)) func(env) (experiments.Printer, error) {
	return func(e env) (experiments.Printer, error) { return f(e.o, e.custom) }
}

var table = []experiment{
	{name: "fig2", run: overWorkloads(experiments.Fig2), inAll: true},
	{name: "fig3", run: overWorkloads(experiments.Fig3), inAll: true},
	{name: "fig4", run: overWorkloads(experiments.Fig4), inAll: true},
	{name: "fig9", run: overWorkloads(experiments.Fig9), inAll: true},
	{name: "fig10", run: overWorkloads(experiments.Fig10), inAll: true},
	{name: "fig11", run: overWorkloads(experiments.Fig11), inAll: true},
	{name: "fig12", run: overWorkloads(experiments.Fig12), inAll: true},
	{name: "fig13", run: overWorkloads(experiments.Fig13), inAll: true},
	{name: "fig14", run: overWorkloads(experiments.Fig14), inAll: true},
	{name: "fig15", run: overWorkloads(experiments.Fig15), inAll: true},
	{name: "fig16", run: overWorkloads(experiments.Fig16), inAll: true},
	{name: "fig17", run: overWorkloads(experiments.Fig17), inAll: true},
	{name: "fig18", run: overWorkloads(experiments.Fig18), inAll: true, title: "Fig. 18 (unseen workloads):"},
	{name: "table2", run: func(e env) (experiments.Printer, error) {
		// The full selection sweep is expensive; restrict the pool to a
		// representative subset.
		return experiments.Table2(e.o, e.custom, []string{"Delta", "PC^Delta", "PC", "VA", "VA>>12",
			"CacheLineOffset", "sTLB MPKI", "sTLB MissRate", "LLC MPKI"}, nil)
	}},
	{name: "table3", run: func(env) (experiments.Printer, error) { return experiments.Table3() }, inAll: true, noCustom: true},
	{name: "table5", run: func(e env) (experiments.Printer, error) { return experiments.Table5(e.o) }, inAll: true, noCustom: true},
	{name: "fig19", run: func(e env) (experiments.Printer, error) {
		return experiments.Fig19(e.o, e.cores, e.mixes)
	}, inAll: true, noCustom: true},
	{name: "sweep-epoch", run: overWorkloads(experiments.EpochSweep)},
	{name: "sweep-stlb", run: overWorkloads(experiments.STLBSweep)},
	{name: "sweep-degree", run: overWorkloads(experiments.DegreeSweep)},
	{name: "sweep-vub", run: overWorkloads(experiments.VUBSweep)},
	{name: "shapes", run: overWorkloads(experiments.VerifyShapes)},
}

func lookup(name string) (experiment, error) {
	for _, x := range table {
		if x.name == name {
			return x, nil
		}
	}
	return experiment{}, fmt.Errorf("unknown experiment %q", name)
}

var expUsage = "experiment: " + strings.Join(expNames(false), "|") + ", or all"

// expNames lists the table's experiments in order; inAll keeps only those
// -exp all runs.
func expNames(inAll bool) []string {
	var out []string
	for _, x := range table {
		if x.inAll || !inAll {
			out = append(out, x.name)
		}
	}
	return out
}

// report runs the experiment and writes its report to out.
func (x experiment) report(e env, out io.Writer, asJSON bool) error {
	if x.noCustom && len(e.custom) > 0 {
		return fmt.Errorf("%s does not take custom workloads", x.name)
	}
	r, err := x.run(e)
	if err != nil {
		return err
	}
	if x.title != "" && !asJSON {
		fmt.Fprintln(out, x.title)
	}
	return experiments.Report(out, x.name, r, asJSON)
}

// customWorkloads assembles the user-supplied workload set: every workload
// from each .wdl file plus one workload per ChampSim trace. A non-empty
// result replaces the registry set in workload-driven experiments.
func customWorkloads(wdlFiles, champsimTraces string) ([]trace.Workload, error) {
	var out []trace.Workload
	for _, path := range splitList(wdlFiles) {
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		ws, err := wdl.ParseWorkloads(path, src)
		if err != nil {
			return nil, err
		}
		out = append(out, ws...)
	}
	for _, path := range splitList(champsimTraces) {
		w, err := trace.LoadChampSim(path)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// hardExitOnSecondSignal makes a second SIGINT/SIGTERM exit the process
// immediately with status 130. The first signal cancels the campaign's
// context for a graceful teardown (partial results, checkpointed cells), but
// signal.NotifyContext swallows every signal after that — without this
// escape hatch a teardown that hangs cannot be interrupted from the
// terminal at all.
func hardExitOnSecondSignal() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs // the graceful one, also delivered to NotifyContext
		<-sigs // the operator has lost patience
		fmt.Fprintln(os.Stderr, "experiments: second signal: exiting immediately")
		os.Exit(130)
	}()
}
