package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// fuzzFamilies spans the generator behaviours sampling must survive:
// page-marching streams, page-hostile hops, irregular graph frontiers and
// short industrial phases.
var fuzzFamilies = []string{
	"spec.stream_s00", "spec.pagehop_s00", "gap.graph_s00", "qmm_int.qmm_u00",
}

// FuzzSampledVsFull throws randomized sampling schedules at randomized
// workloads and holds three properties the campaign layer depends on:
//
//  1. no panic and no error from either execution mode for any structurally
//     valid schedule (degenerate periods, tiny budgets, ragged tails);
//  2. the sampled run stays within a coarse error envelope of the full run —
//     sampling at its worst is an approximation, never garbage;
//  3. the content-addressed cache key of a sampled cell differs from its
//     full-detail twin (and moves when the schedule moves), so sampled
//     results can never alias full ones in the result cache.
func FuzzSampledVsFull(f *testing.F) {
	f.Add(uint8(0), uint64(1), uint16(2000), uint32(0), uint16(1000), uint8(2))
	f.Add(uint8(1), uint64(7), uint16(500), uint32(8_192), uint16(250), uint8(0))
	f.Add(uint8(2), uint64(42), uint16(4000), uint32(50_000), uint16(2000), uint8(5))
	f.Add(uint8(3), uint64(0), uint16(1), uint32(1), uint16(1), uint8(7))
	f.Fuzz(func(t *testing.T, familySel uint8, seed uint64, interval uint16, period uint32, ramp uint16, budgetSel uint8) {
		w, ok := trace.ByName(fuzzFamilies[int(familySel)%len(fuzzFamilies)])
		if !ok {
			t.Fatal("fuzz workload missing")
		}
		cfg := sim.DefaultConfig()
		cfg.Policy = sim.PolicyDripper
		cfg.WarmupInstrs = 5_000
		cfg.SimInstrs = 40_000 + uint64(budgetSel%8)*20_000

		sc := sim.SampleConfig{
			Enabled:        true,
			Seed:           seed,
			IntervalInstrs: 500 + uint64(interval)%3_500,
			RampInstrs:     200 + uint64(ramp)%1_800,
		}
		if period%2 == 1 {
			// Explicit period, clamped up to structural validity; even values
			// exercise the auto-scaled default instead.
			sc.PeriodInstrs = uint64(period) % 56_000
			if min := sc.IntervalInstrs + sc.RampInstrs; sc.PeriodInstrs < min {
				sc.PeriodInstrs = min
			}
		}

		full, err := sim.RunWorkload(context.Background(), cfg, w)
		if err != nil {
			t.Fatalf("full run: %v", err)
		}
		sampledCfg := cfg
		sampledCfg.Sample = sc
		samp, err := sim.RunWorkload(context.Background(), sampledCfg, w)
		if err != nil {
			t.Fatalf("sampled run: %v", err)
		}

		// Coarse error envelope: at fuzz-sized budgets a handful of intervals
		// represent the run, so the bound is loose — it exists to catch
		// catastrophic divergence (cold warm state, broken ramp exclusion),
		// not to re-litigate the golden accuracy gate.
		if fi, si := full.IPC(), samp.IPC(); math.Abs(si-fi)/fi > 0.5 {
			t.Fatalf("sampled IPC %.4f strayed more than 50%% from full %.4f (schedule %+v)", si, fi, sc)
		}

		fullKey, err := KeyOf(cfg, w)
		if err != nil {
			t.Fatalf("full key: %v", err)
		}
		sampKey, err := KeyOf(sampledCfg, w)
		if err != nil {
			t.Fatalf("sampled key: %v", err)
		}
		if fullKey == sampKey {
			t.Fatal("sampled cell aliases its full-detail twin in the result cache")
		}
		reseeded := sampledCfg
		reseeded.Sample.Seed = seed + 1
		reseededKey, err := KeyOf(reseeded, w)
		if err != nil {
			t.Fatalf("reseeded key: %v", err)
		}
		if reseededKey == sampKey {
			t.Fatal("moving the sampling seed did not move the cache key")
		}
	})
}

// FuzzDecodeRuns holds the store's reader to json.Marshal's bytes in both
// directions:
//
//  1. any payload decodeRuns accepts re-marshals to exactly those bytes, so
//     Get never serves an entry Put could not have written;
//  2. json.Marshal of runs built from fuzzed field values is always
//     accepted and decodes to those runs, and the plan Put writes them
//     through gives exactly those bytes.
//
// The seeds are a real single-core payload, a 2-core mix payload, and runs
// whose names hold every kind of character json.Marshal escapes.
func FuzzDecodeRuns(f *testing.F) {
	s, k := storedRun(f)
	single, _ := s.Get(k)
	for _, runs := range [][]*stats.Run{single, mixRuns(f), storeRuns()} {
		payload, err := json.Marshal(runs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload, runs[0].Workload, runs[0].Suite, runs[0].Core.Cycles, runs[0].Core.Instructions)
	}
	for i, name := range escapedNames {
		f.Add([]byte(nil), name, escapedNames[len(escapedNames)-1-i], uint64(i), ^uint64(i))
	}
	f.Add([]byte(`[{"Workload":"\ufffd"}]`), "invalid \xff UTF-8", "\xed\xa0\x80", uint64(0), uint64(1))
	f.Fuzz(func(t *testing.T, data []byte, workload, suite string, x, y uint64) {
		if runs, ok := decodeRuns(data); ok {
			again, err := json.Marshal(runs)
			if err != nil || !bytes.Equal(again, data) {
				t.Fatalf("accepted\n%q\nwhich re-marshals to\n%q", data, again)
			}
		}

		runs := fuzzRuns(workload, suite, x, y)
		payload, err := json.Marshal(runs)
		if err != nil {
			t.Fatal(err)
		}
		if planned, err := appendRuns(nil, runs); err != nil || !bytes.Equal(planned, payload) {
			t.Fatalf("Put's plan wrote\n%q (err %v)\nwhich is not json.Marshal's\n%q", planned, err, payload)
		}
		got, ok := decodeRuns(payload)
		if !ok {
			t.Fatalf("rejected json.Marshal's own bytes\n%q", payload)
		}
		if !reflect.DeepEqual(got, runs) {
			t.Fatalf("decoded\n%+v\nwant\n%+v", got, runs)
		}
	})
}

// fuzzRuns builds one or two runs whose every uint64 field is drawn
// from x and y (including 0 and the extremes) and whose names are the
// fuzzed strings made valid UTF-8: json.Marshal writes an invalid byte as
// \ufffd, so such a name cannot come back from any entry, and Get misses
// it (TestStoreInvalidUTF8NameMisses).
func fuzzRuns(workload, suite string, x, y uint64) []*stats.Run {
	workload = strings.ToValidUTF8(workload, "\uFFFD")
	suite = strings.ToValidUTF8(suite, "\uFFFD")
	vals := []uint64{x, y, x ^ y, 0, math.MaxUint64 - x, x >> (y % 64)}
	n := 0
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); f.Kind() {
			case reflect.Uint64:
				f.SetUint(vals[n%len(vals)])
				n++
			case reflect.Struct:
				fill(f)
			}
		}
	}
	runs := make([]*stats.Run, 1+y%2)
	for i := range runs {
		runs[i] = &stats.Run{Workload: workload, Suite: suite}
		if i == 1 {
			runs[i].Workload, runs[i].Suite = suite, workload
		}
		fill(reflect.ValueOf(runs[i]).Elem())
	}
	return runs
}

// FuzzKeyPreimage holds the key's pre-image to json.Marshal's bytes: for
// a cell built from fuzzed ints, uints, floats, strings and nil-or-not
// choices, the plan writes exactly what json.Marshal writes, or both fail
// (NaN and ±Inf). The seeds hold the integer extremes, the floats at
// encoding/json's format switches (1e-6, 1e21) and its exponent trim,
// -0, the smallest subnormal, and strings json.Marshal escapes.
func FuzzKeyPreimage(f *testing.F) {
	f.Add(int64(0), uint64(0), 0.0, "", uint8(0))
	f.Add(int64(math.MinInt64), uint64(math.MaxUint64), math.Copysign(0, -1), "<a&b>", uint8(0xff))
	f.Add(int64(math.MaxInt64), uint64(1), 1e-7, "\x00\x1f\"\\", uint8(0x55))
	f.Add(int64(-1), uint64(1<<63), 1e21, "\u2028 \u2029", uint8(0xaa))
	f.Add(int64(1), uint64(10), 5e-324, "invalid \xff UTF-8", uint8(0x0f))
	f.Add(int64(7), uint64(99), 1e-6, "\xed\xa0\x80", uint8(0xf0))
	f.Add(int64(100), uint64(1e6), 999999999999999900000.0, "plain", uint8(3))
	f.Add(int64(-12), uint64(12), math.NaN(), "nan", uint8(1))
	f.Add(int64(12), uint64(12), math.Inf(-1), "inf", uint8(2))
	f.Fuzz(func(t *testing.T, i int64, u uint64, x float64, s string, flags uint8) {
		p := fuzzPayload(i, u, x, s, flags)
		want, werr := json.Marshal(p)
		got, gerr := appendPreimage(nil, p)
		if (werr != nil) != (gerr != nil) || !bytes.Equal(got, want) {
			t.Fatalf("plan wrote\n%s (err %v)\njson.Marshal wrote\n%s (err %v)", got, gerr, want, werr)
		}
	})
}

// fuzzPayload builds a single- or multi-core pre-image whose config and
// workload fields are drawn from the fuzzed values. Each flag bit picks a
// nil or non-nil (or empty) alternative.
func fuzzPayload(i int64, u uint64, x float64, s string, flags uint8) *keyPayload {
	bit := func(n uint) bool { return flags&(1<<n) != 0 }
	cfg := sim.DefaultConfig()
	cfg.Core.Width, cfg.MaxPrefetchDegree = int(i), int(i>>7)
	cfg.WarmupInstrs, cfg.DRAM.RowBytes = u, u>>3
	cfg.VMem.LargePageFraction = x
	cfg.L1DPrefetcher, cfg.Policy, cfg.LLC.Name = s, sim.PolicyKind(s), s+s
	cfg.Sample = sim.SampleConfig{Enabled: bit(0), Seed: u, IntervalInstrs: uint64(i)}
	if bit(1) {
		fc := core.DefaultDripperConfig(s)
		fc.Name = s
		fc.Adaptive.AccuracyLow, fc.Adaptive.IPCDropFrac = x, -x
		fc.Adaptive.Levels = nil
		if bit(2) {
			fc.ProgramFeatures, fc.SystemFeatures = []string{}, []string{s, ""}
			fc.Adaptive.Levels = []int{int(i), 0}
		}
		if bit(3) {
			th := int(i)
			fc.StaticThreshold = &th
		}
		cfg.FilterConfig = &fc
	}
	gen := trace.GenConfig{Seed: u, ComputePerMem: int(i), StoreFrac: x / 3, HardBranchFrac: x * 1e-9}
	if bit(4) {
		gen.Streams = []trace.StreamSpec{{StrideLines: i, FootprintPages: u, JumpRandom: bit(5)}}
		gen.Phases = [][]int{nil, {}, {int(i)}}
	} else if bit(5) {
		gen.Streams, gen.Phases = []trace.StreamSpec{}, [][]int{}
	}
	wk := workloadKey{Name: s, Suite: s[:len(s)/2], Gen: gen}
	if bit(6) {
		wk.Source = &trace.Source{Path: s, Format: s, SHA256: s}
	}
	p := &keyPayload{Schema: int(i), Workloads: []workloadKey{wk, wk}[:1+int(flags>>7)]}
	if bit(7) {
		p.Multi = &sim.MultiConfig{PerCore: cfg, Cores: int(i), QuantumCycles: u}
	} else {
		p.Config = &cfg
	}
	return p
}
