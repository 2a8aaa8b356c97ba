package sim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"hash"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/faultinject"
	"repro/internal/mem"
	"repro/internal/sample"
	"repro/internal/trace"
	"repro/internal/vmem"
)

// serialWarm is functional warmup without the pipeline: every install is
// applied the moment translation produces it, page-table reads at their
// unaligned entry addresses, exactly as the warm path ran when the walker
// installed its own reads. It is the reference the pipeline must match.
type serialWarm struct {
	s     *System
	reads []mem.PAddr
}

func (o *serialWarm) WarmFetch(pc uint64) {
	va := mem.VAddr(pc)
	tr := o.walked(o.s.MMU.WarmInstr(va, o.reads[:0]))
	o.s.L1I.Warm(tr.PA(va), false)
}

func (o *serialWarm) WarmLoad(va uint64) {
	v := mem.VAddr(va)
	tr := o.walked(o.s.MMU.WarmData(v, o.reads[:0]))
	o.s.L1D.Warm(tr.PA(v), false)
}

func (o *serialWarm) WarmStore(va uint64) {
	v := mem.VAddr(va)
	tr := o.walked(o.s.MMU.WarmData(v, o.reads[:0]))
	o.s.L1D.Warm(tr.PA(v), true)
}

func (o *serialWarm) walked(tr vmem.Translation, reads []mem.PAddr) vmem.Translation {
	o.reads = reads
	for _, pa := range reads {
		o.s.L1D.Warm(pa, false)
	}
	return tr
}

// hashState folds every scalar v holds by value — through structs, arrays
// and slices, but not pointers, interfaces, maps or funcs — into h. Two
// caches hash equal only when their tags, replacement stamps, block records,
// MSHR files and clocks all agree, including state no later access happens
// to observe.
func hashState(h hash.Hash, v reflect.Value) {
	var b [8]byte
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			b[0] = 1
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		binary.LittleEndian.PutUint64(b[:], uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		binary.LittleEndian.PutUint64(b[:], v.Uint())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			hashState(h, v.Field(i))
		}
		return
	case reflect.Array, reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			hashState(h, v.Index(i))
		}
		return
	default:
		return
	}
	h.Write(b[:])
}

// hierarchyState hashes the value state of all four cache levels.
func hierarchyState(s *System) string {
	h := sha256.New()
	for _, c := range []*cache.Cache{s.L1I, s.L1D, s.L2C, s.LLC} {
		hashState(h, reflect.ValueOf(c).Elem())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestWarmPipelineMatchesSerial holds the two-stage warm pipeline to the
// serial reference on every workload family: two rounds of a multi-chunk
// functional gap followed by one fixed detailed interval must leave the
// same cache state after every gap, and the same statistics and full
// metrics snapshot at the end, byte for byte.
func TestWarmPipelineMatchesSerial(t *testing.T) {
	const (
		rounds   = 2
		gap      = 150_000 // several warm chunks and many op batches
		interval = 10_000
	)
	for _, name := range accuracyFamilies {
		t.Run(name, func(t *testing.T) {
			w, ok := trace.ByName(name)
			if !ok {
				t.Fatalf("workload %s missing", name)
			}
			run := func(pipelined bool) (states []string, runJSON, snap []byte) {
				cfg := DefaultConfig()
				cfg.Policy = PolicyDripper
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				r, err := w.NewReader()
				if err != nil {
					t.Fatal(err)
				}
				ctx := context.Background()
				serial := &sample.Warmer{Ops: &serialWarm{s: s}}
				warm := func() (bool, error) { return warmChunks(ctx, serial, r, gap) }
				if pipelined {
					pipe := s.newWarmPipe(false)
					defer pipe.stop()
					warm = func() (bool, error) { return pipe.warm(ctx, r, gap) }
				}
				for i := 0; i < rounds; i++ {
					if _, err := warm(); err != nil {
						t.Fatal(err)
					}
					states = append(states, hierarchyState(s))
					s.gapReset()
					s.Core.Attach(r, interval)
					if err := s.Run(ctx); err != nil {
						t.Fatal(err)
					}
				}
				if runJSON, err = json.Marshal(s.Collect(w.Name, w.Suite)); err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := s.Snapshot().WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				return states, runJSON, buf.Bytes()
			}
			pStates, pStats, pSnap := run(true)
			sStates, sStats, sSnap := run(false)
			for i := range pStates {
				if pStates[i] != sStates[i] {
					t.Errorf("gap %d: pipelined cache state differs from serial warmup", i)
				}
			}
			if !bytes.Equal(pStats, sStats) {
				t.Errorf("pipelined statistics differ from serial warmup:\npipelined %s\nserial    %s", pStats, sStats)
			}
			if !bytes.Equal(pSnap, sSnap) {
				t.Error("pipelined metrics snapshot differs from serial warmup")
			}
		})
	}
}

// cancelAfter cancels a context once n records have been read from r.
type cancelAfter struct {
	trace.Reader
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) Next() (trace.Instr, bool) {
	if c.n--; c.n == 0 {
		c.cancel()
	}
	return c.Reader.Next()
}

// settleGoroutines waits for the goroutine count to return to base: a worker
// that has signalled its exit may not have been reaped yet.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before: the install stage outlived it", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// catchPanic runs f and returns the value of any panic it raised on this
// goroutine, as the campaign engine's per-cell recover sees it, with the
// stack it was raised from.
func catchPanic(f func()) (v any, stack string) {
	defer func() {
		if v = recover(); v != nil {
			stack = string(debug.Stack())
		}
	}()
	f()
	return nil, ""
}

// TestWarmPipelineLifecycle checks that no install-stage goroutine outlives a
// sampled run, however the run ends, and that panics on either stage reach
// the caller's goroutine.
func TestWarmPipelineLifecycle(t *testing.T) {
	const warmup, budget = 20_000, 200_000
	// A record inside the first sampling gap, past the warmup.
	const inGap = warmup + 5_000
	w, ok := trace.ByName("spec.pagehop_s00")
	if !ok {
		t.Fatal("workload missing")
	}
	config := func() Config {
		cfg := DefaultConfig()
		cfg.Policy = PolicyDripper
		cfg.WarmupInstrs = warmup
		cfg.SimInstrs = budget
		cfg.Sample = SampleConfig{Enabled: true}
		return cfg
	}

	t.Run("return", func(t *testing.T) {
		base := runtime.NumGoroutine()
		if _, err := RunWorkload(context.Background(), config(), w); err != nil {
			t.Fatal(err)
		}
		settleGoroutines(t, base)
	})

	t.Run("cancel-mid-gap", func(t *testing.T) {
		base := runtime.NumGoroutine()
		r, err := w.NewReader()
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		_, err = RunTrace(ctx, config(), w.Name, w.Suite, &cancelAfter{Reader: r, n: inGap, cancel: cancel})
		var re *RunError
		if !errors.Is(err, context.Canceled) || !errors.As(err, &re) || re.Stage != "measure" {
			t.Fatalf("err = %v, want a measure-stage cancellation", err)
		}
		settleGoroutines(t, base)
	})

	t.Run("trace-panic-mid-gap", func(t *testing.T) {
		base := runtime.NumGoroutine()
		cfg := config()
		cfg.FaultInject = faultinject.New(faultinject.Config{PanicAtRecord: inGap})
		v, _ := catchPanic(func() { RunWorkload(context.Background(), cfg, w) })
		if msg, ok := v.(string); !ok || !strings.Contains(msg, "faultinject: corrupted trace record") {
			t.Fatalf("recovered %v, want the injected trace panic", v)
		}
		settleGoroutines(t, base)
	})

	t.Run("install-panic", func(t *testing.T) {
		base := runtime.NumGoroutine()
		s, err := New(config())
		if err != nil {
			t.Fatal(err)
		}
		r, err := w.NewReader()
		if err != nil {
			t.Fatal(err)
		}
		// Break the hierarchy: the install stage's first fetch-line install
		// dereferences a nil L1I and panics on the worker. The caller would
		// fault on it too, later, so the stack must show that the pipeline
		// re-raised the worker's panic.
		s.L1I = nil
		v, stack := catchPanic(func() { s.runSampled(context.Background(), w.Name, w.Suite, r) })
		if _, ok := v.(runtime.Error); !ok {
			t.Fatalf("recovered %v, want the install stage's runtime error re-raised on the caller", v)
		}
		if !strings.Contains(stack, "(*warmPipe).reclaim") {
			t.Fatalf("panic %v was not re-raised by the warm pipeline:\n%s", v, stack)
		}
		settleGoroutines(t, base)
	})
}
