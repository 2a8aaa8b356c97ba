package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// benchmarkSpec is the part of BENCHMARK.json the program must agree with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSmoke runs every workload at smoke scale, untraced and traced, and
// checks that each run is correct and emits exactly the metrics
// BENCHMARK.json names, with its units.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames)
	}
	wantE2E, wantLayer := map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		wantE2E[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		wantLayer[m.Name] = m.Unit
	}

	start := time.Now()
	for _, w := range workloadNames {
		for _, traced := range []string{"0", "1"} {
			dir := t.TempDir()
			args := []string{"--workload", w, "--seed", "7", "--seconds", "0.3", "--trace", traced,
				"--scale", "smoke", "--trace-dir", dir + "/trace", "--work-dir", dir + "/work"}
			var stdout, stderr bytes.Buffer
			if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s", w, traced, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line is not the result: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v failed=%d attempted=%d", w, traced, res.Correct, res.Failed, res.Attempted)
			}
			got := map[string]string{}
			for name, m := range res.Metrics {
				got[name] = m.Unit
			}
			want := wantE2E
			if traced == "1" {
				want = wantLayer
				sum := 0.0
				for _, mod := range hostModules {
					sum += res.Metrics["host."+mod+".frac"].Value
				}
				if math.Abs(sum-1) > 0.01 {
					t.Errorf("%s: host fractions sum to %v", w, sum)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%s: emitted metrics and units differ from BENCHMARK.json\n got %v\nwant %v", w, traced, got, want)
			}
			for _, name := range []string{"sim_kips", "op_ms_p50", "setup_s"} {
				if v, ok := res.Metrics[name]; ok && v.Value <= 0 {
					t.Errorf("%s: %s = %v, want positive", w, name, v.Value)
				}
			}
		}
	}
	if d := time.Since(start); d > 15*time.Second && !raceDetector {
		t.Errorf("smoke runs took %v, want under 15s", d)
	}
}

// raceDetector is set when the tests run under the race detector.
var raceDetector bool

func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "sampled", "--trace", "2"},
		{"--workload", "sampled", "--scale", "huge"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want 2 and no result", args, code, stdout.String())
		}
	}
}

func TestQuantile(t *testing.T) {
	// Values from Python: statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
	} {
		for i, q := range []float64{0.25, 0.5, 0.75} {
			if got := quantile(c.xs, q); math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, q, got, c.want[i])
			}
		}
	}
	if got := median([]float64{3}); got != 3 {
		t.Errorf("median of one sample = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
}

// TestTailPermille pins the percentile reported as a tail: the highest with
// at least ten samples beyond it.
func TestTailPermille(t *testing.T) {
	for n, want := range map[int]int{
		0: 0, 19: 0, 20: 500, 39: 500, 40: 750, 100: 900, 199: 900,
		200: 950, 999: 950, 1000: 990, 9999: 990, 10000: 999,
	} {
		if got := tailPermille(n); got != want {
			t.Errorf("tailPermille(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestCalibration checks the rescaling to the reference host: a host whose
// probe runs at half the reference rate takes twice as long, so its raw
// durations halve and its raw rates double.
func TestCalibration(t *testing.T) {
	p := &prober{ref: 200}
	f := p.factor(90, 110)
	if f != 0.5 {
		t.Fatalf("factor(90, 110) with ref 200 = %v, want 0.5", f)
	}
	s := opSample{raw: 2 * time.Second, factor: f}
	if got := s.seconds(); got != 1 {
		t.Errorf("2s on a half-speed host = %vs on the reference host, want 1", got)
	}
	cells := []cell{{instrs: 1000}}
	if got := cellKips(cells, []opSample{s}, true); got != 1 {
		t.Errorf("calibrated kips = %v, want 1", got)
	}
	if got := cellKips(cells, []opSample{s}, false); got != 0.5 {
		t.Errorf("raw kips = %v, want 0.5", got)
	}
}

// TestProbeKernelFixed pins the probe's work. Changing it rescales every
// calibrated number the ledger records.
func TestProbeKernelFixed(t *testing.T) {
	table := make([]uint64, 1<<10)
	x := probeKernel(table, 1<<12, 1)
	var sum uint64
	for i, v := range table {
		sum += v * uint64(i+1)
	}
	if x != 0xdbe97cb273032b37 || sum != 0xf403ef087ef27cd6 {
		t.Errorf("probeKernel = %#x, table sum %#x; want 0xdbe97cb273032b37, 0xf403ef087ef27cd6", x, sum)
	}
}

// TestAttribute charges a canned `go tool pprof -traces` output to
// modules: runtime and standard-library frames go to their caller, the
// benchmark's own frames to "bench", stacks without a module frame to
// "runtime", and internal packages outside the listed modules to "other".
func TestAttribute(t *testing.T) {
	b, err := os.ReadFile("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	secs, total, err := attribute(string(b))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"cache": 0.03, "metrics": 0.02, "core": 0.01, "bench": 0.01,
		"runtime": 0.01, "other": 0.01, "campaign": 0.01,
	}
	if math.Abs(total-0.1) > 1e-9 {
		t.Errorf("total = %v, want 0.1", total)
	}
	sum := 0.0
	for mod, s := range secs {
		if math.Abs(s-want[mod]) > 1e-9 {
			t.Errorf("%s: %vs, want %vs", mod, s, want[mod])
		}
		sum += s / total
	}
	if len(secs) != len(want) {
		t.Errorf("modules %v, want %v", keys(secs), keys(want))
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("fractions sum to %v", sum)
	}
	for _, bad := range []string{"", "-----------+---\n  zz   main.x\n"} {
		if _, _, err := attribute(bad); err == nil {
			t.Errorf("attribute(%q) accepted", bad)
		}
	}
}

func keys(m map[string]float64) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestReseed checks the seed contract: seed 0 is the registry instance, any
// other seed changes only the generator seed, deterministically.
func TestReseed(t *testing.T) {
	w, ok := trace.ByName("spec.stream_s00")
	if !ok {
		t.Fatal("spec.stream_s00 missing")
	}
	if got := reseed(w, 0); !reflect.DeepEqual(got, w) {
		t.Error("seed 0 changed the registry instance")
	}
	a, b := reseed(w, 7), reseed(w, 8)
	if a.Config.Seed == w.Config.Seed || a.Config.Seed == b.Config.Seed {
		t.Errorf("seeds 7 and 8 give generator seeds %#x and %#x (registry %#x)", a.Config.Seed, b.Config.Seed, w.Config.Seed)
	}
	if !reflect.DeepEqual(reseed(w, 7), a) {
		t.Error("seed 7 is not deterministic")
	}
	a.Config.Seed = w.Config.Seed
	if !reflect.DeepEqual(a, w) {
		t.Error("reseeding changed more than the generator seed")
	}
	for _, name := range workloadNames {
		cells, err := cellsFor(name, 7, scales["full"])
		if err != nil || len(cells) == 0 {
			t.Errorf("%s: %d cells, %v", name, len(cells), err)
		}
	}
}
