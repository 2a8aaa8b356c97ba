// Command bench is the repository's benchmark. It drives the simulator
// through the public API of its modules on one of four workloads, checks
// that every output is correct, and prints its metrics as `name value unit`
// lines followed by one JSON result line:
//
//	bash bench/run.sh --workload detail_pgc --seed 0 --seconds 25 --trace 0
//
// --trace 0 measures the end-to-end metrics. --trace 1 runs the traced pass
// instead and prints the per-layer metrics, writing spans.json, cpu.pprof
// and layers.json under -trace-dir. README.md lists every metric and why
// each workload exists.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// ledgerJSON pins what the benchmark records beside BENCHMARK.json: the
// calibration reference, seeds, commands, environment and reference
// values. The program reads only the calibration reference.
//
//go:embed ledger.json
var ledgerJSON []byte

// options are one run's flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceDir string
	workDir  string
	scale    scale
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line every run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// deadline bounds a whole run; operations still going then fail, so the
// run reports instead of hanging.
const deadline = 170 * time.Second

func main() {
	runtime.GOMAXPROCS(workers())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run parses flags, runs the workload and prints the result. It returns
// the exit code: 0 for a correct run, 1 when an output check failed or the
// run could not finish, 2 for bad flags.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "one of "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&o.seed, "seed", 0, "input seed; 0 runs the registry's golden-table instances")
	fs.Float64Var(&o.seconds, "seconds", 25, "how long the measured loop runs")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
	fs.StringVar(&o.traceDir, "trace-dir", filepath.Join(".bench_build", "trace"), "where the traced pass writes spans.json, cpu.pprof and layers.json")
	fs.StringVar(&o.workDir, "work-dir", filepath.Join(".bench_build", "work"), "parent of the run's scratch directory, which is removed at exit")
	scaleName := fs.String("scale", "full", "full, or smoke for a seconds-long check")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sc, ok := scales[*scaleName]
	switch {
	case !slices.Contains(workloadNames, o.workload):
		fmt.Fprintf(stderr, "bench: -workload must be one of %s\n", strings.Join(workloadNames, ", "))
		return 2
	case *traced != 0 && *traced != 1:
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	case !ok:
		fmt.Fprintln(stderr, "bench: -scale must be full or smoke")
		return 2
	case o.seconds <= 0:
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	o.trace, o.scale = *traced == 1, sc

	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()
	res, notes, err := execute(ctx, o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	for _, n := range notes {
		fmt.Fprintf(stdout, "# %s\n", n)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(stdout, "%s %v %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: encoding the result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// execute runs one workload in the mode o selects.
func execute(ctx context.Context, o options, log io.Writer) (result, []string, error) {
	var l struct {
		Calibration struct {
			RefMops float64 `json:"ref_mops"`
		} `json:"calibration"`
	}
	if err := json.Unmarshal(ledgerJSON, &l); err != nil {
		return result{}, nil, fmt.Errorf("ledger.json: %w", err)
	}
	if l.Calibration.RefMops <= 0 {
		return result{}, nil, fmt.Errorf("ledger.json: calibration.ref_mops must be positive")
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return result{}, nil, err
	}
	work, err := os.MkdirTemp(o.workDir, o.workload+"-")
	if err != nil {
		return result{}, nil, err
	}
	defer os.RemoveAll(work)

	e := &env{opts: o, log: log, work: work, probe: newProber(o.scale.probeSteps, l.Calibration.RefMops)}
	cells, err := cellsFor(o.workload, o.seed, o.scale)
	if err != nil {
		return result{}, nil, err
	}
	var metrics map[string]metricValue
	switch {
	case o.workload == "campaign" && o.trace:
		metrics, err = traceCampaign(ctx, e, cells)
	case o.workload == "campaign":
		metrics = measureCampaign(ctx, e, cells)
	case o.trace:
		metrics, err = traceCells(ctx, e, cells)
	default:
		metrics = measureCells(ctx, e, cells)
	}
	if err != nil {
		return result{}, nil, err
	}
	for name, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			e.record(fmt.Errorf("metric %s has no value: every operation it is measured on failed", name))
			m.Value = 0
			metrics[name] = m
		}
	}
	res := result{Correct: e.failed == 0, Attempted: e.attempted, Failed: e.failed, Metrics: metrics}
	return res, e.notes, nil
}
