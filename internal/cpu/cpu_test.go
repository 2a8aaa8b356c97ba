package cpu

import (
	"math"
	"testing"

	"repro/internal/trace"
)

// fastPorts completes everything instantly.
func fastPorts() Ports {
	return Ports{
		Fetch: func(pc uint64, cycle uint64) uint64 { return cycle },
		Load:  func(pc, va uint64, cycle uint64) uint64 { return cycle + 1 },
		Store: func(pc, va uint64, cycle uint64) uint64 { return cycle + 1 },
	}
}

// runAll steps c until its budget retires in one unbounded StepCycles call.
func runAll(c *Core) { c.StepCycles(math.MaxUint64) }

// opTrace builds n non-memory instructions on one cache line.
func opTrace(n int) *trace.SliceReader {
	ins := make([]trace.Instr, n)
	for i := range ins {
		ins[i] = trace.Instr{PC: 0x400000 + uint64(i%16)*4, Kind: trace.Op}
	}
	return trace.NewSliceReader(ins)
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Width: 0, ROBSize: 10}, fastPorts()); err == nil {
		t.Fatal("zero width accepted")
	}
	if _, err := New(DefaultConfig(), Ports{}); err == nil {
		t.Fatal("missing ports accepted")
	}
}

func TestIPCBoundedByWidth(t *testing.T) {
	c, err := New(DefaultConfig(), fastPorts())
	if err != nil {
		t.Fatal(err)
	}
	c.Attach(opTrace(6000), 6000)
	runAll(c)
	ipc := c.Stats.IPC()
	if ipc > 6.0 {
		t.Fatalf("IPC %g exceeds width", ipc)
	}
	if ipc < 2.0 {
		t.Fatalf("IPC %g too low for an all-ops trace", ipc)
	}
	if c.Stats.Instructions != 6000 {
		t.Fatalf("retired %d", c.Stats.Instructions)
	}
}

func TestSlowLoadsStallROB(t *testing.T) {
	slow := fastPorts()
	slow.Load = func(pc, va uint64, cycle uint64) uint64 { return cycle + 500 }
	c, err := New(DefaultConfig(), slow)
	if err != nil {
		t.Fatal(err)
	}
	ins := make([]trace.Instr, 1000)
	for i := range ins {
		k := trace.Op
		var addr uint64
		if i%10 == 0 {
			k = trace.Load
			addr = uint64(0x1000 + i*64)
		}
		ins[i] = trace.Instr{PC: 0x400000, Kind: k, Addr: addr}
	}
	c.Attach(trace.NewSliceReader(ins), 1000)
	runAll(c)
	if c.Stats.ROBStallCycles == 0 {
		t.Fatal("500-cycle loads should stall retire")
	}
	if c.Stats.IPC() > 1.0 {
		t.Fatalf("IPC %g too high under 500-cycle loads every 10 instrs", c.Stats.IPC())
	}
	if c.Stats.Loads != 100 {
		t.Fatalf("loads = %d", c.Stats.Loads)
	}
}

func TestMLPOverlapsLoads(t *testing.T) {
	// Independent loads should overlap: IPC with 100-cycle loads every
	// 4 instrs must be far better than serialized (which would be ~0.04).
	slow := fastPorts()
	slow.Load = func(pc, va uint64, cycle uint64) uint64 { return cycle + 100 }
	c, _ := New(DefaultConfig(), slow)
	ins := make([]trace.Instr, 4000)
	for i := range ins {
		k := trace.Op
		var addr uint64
		if i%4 == 0 {
			k = trace.Load
			addr = uint64(0x1000 + i*64)
		}
		ins[i] = trace.Instr{PC: 0x400000, Kind: k, Addr: addr}
	}
	c.Attach(trace.NewSliceReader(ins), 4000)
	runAll(c)
	if ipc := c.Stats.IPC(); ipc < 0.5 {
		t.Fatalf("IPC %g: ROB is not extracting MLP", ipc)
	}
}

func TestFetchStallGatesDispatch(t *testing.T) {
	slowFetch := fastPorts()
	fetches := 0
	slowFetch.Fetch = func(pc uint64, cycle uint64) uint64 {
		fetches++
		return cycle + 50
	}
	c, _ := New(DefaultConfig(), slowFetch)
	// Instructions spread over many lines: every line costs a 50-cycle fetch.
	ins := make([]trace.Instr, 600)
	for i := range ins {
		ins[i] = trace.Instr{PC: uint64(0x400000 + i*64), Kind: trace.Op}
	}
	c.Attach(trace.NewSliceReader(ins), 600)
	runAll(c)
	if fetches != 600 {
		t.Fatalf("fetches = %d, want 600 (one per line)", fetches)
	}
	if c.Stats.IPC() > 0.05 {
		t.Fatalf("IPC %g: fetch stalls not modelled", c.Stats.IPC())
	}
}

func TestStoresRetireWithoutWaiting(t *testing.T) {
	p := fastPorts()
	storeCalls := 0
	p.Store = func(pc, va uint64, cycle uint64) uint64 {
		storeCalls++
		return cycle + 10000 // ignored by retire
	}
	c, _ := New(DefaultConfig(), p)
	ins := make([]trace.Instr, 100)
	for i := range ins {
		ins[i] = trace.Instr{PC: 0x400000, Kind: trace.Store, Addr: uint64(0x1000 + i*64)}
	}
	c.Attach(trace.NewSliceReader(ins), 100)
	runAll(c)
	if storeCalls != 100 {
		t.Fatalf("store port called %d times", storeCalls)
	}
	if c.Stats.Cycles > 200 {
		t.Fatalf("stores waited for completion: %d cycles", c.Stats.Cycles)
	}
}

func TestEpochCallback(t *testing.T) {
	p := fastPorts()
	var epochs []uint64
	p.Epoch = func(cycle, retired uint64) { epochs = append(epochs, retired) }
	cfg := DefaultConfig()
	cfg.EpochInstrs = 100
	c, _ := New(cfg, p)
	c.Attach(opTrace(1000), 1000)
	runAll(c)
	if len(epochs) < 9 {
		t.Fatalf("epochs fired %d times, want ~10", len(epochs))
	}
	if epochs[0] < 100 || epochs[0] > 106 {
		t.Fatalf("first epoch at %d retired", epochs[0])
	}
}

func TestBudgetStopsMidTrace(t *testing.T) {
	c, _ := New(DefaultConfig(), fastPorts())
	c.Attach(opTrace(1000), 300)
	runAll(c)
	if c.Stats.Instructions != 300 {
		t.Fatalf("retired %d, want 300", c.Stats.Instructions)
	}
	if !c.Done() {
		t.Fatal("core should be done")
	}
	// Re-attach continues from where the trace left off.
	c.Attach(opTrace(1000), 200)
	runAll(c)
	if c.Stats.Instructions != 500 {
		t.Fatalf("retired %d after re-attach, want 500", c.Stats.Instructions)
	}
}

func TestReplayOnEnd(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReplayOnEnd = true
	c, _ := New(cfg, fastPorts())
	c.Attach(opTrace(50), 500) // trace shorter than budget
	runAll(c)
	if c.Stats.Instructions != 500 {
		t.Fatalf("retired %d with replay, want 500", c.Stats.Instructions)
	}
}

func TestNoReplayStopsAtTraceEnd(t *testing.T) {
	c, _ := New(DefaultConfig(), fastPorts())
	c.Attach(opTrace(50), 500)
	runAll(c)
	if c.Stats.Instructions != 50 {
		t.Fatalf("retired %d without replay, want 50", c.Stats.Instructions)
	}
}

func TestStepCyclesBounded(t *testing.T) {
	c, _ := New(DefaultConfig(), fastPorts())
	c.Attach(opTrace(100000), 100000)
	done := c.StepCycles(10)
	if done {
		t.Fatal("done after 10 cycles of a 100k budget")
	}
	if c.Stats.Cycles != 10 {
		t.Fatalf("cycles = %d, want 10", c.Stats.Cycles)
	}
}

func TestROBOccupancyFrac(t *testing.T) {
	slow := fastPorts()
	slow.Load = func(pc, va uint64, cycle uint64) uint64 { return cycle + 1000 }
	c, _ := New(DefaultConfig(), slow)
	ins := make([]trace.Instr, 2000)
	for i := range ins {
		ins[i] = trace.Instr{PC: 0x400000, Kind: trace.Load, Addr: uint64(i * 64)}
	}
	c.Attach(trace.NewSliceReader(ins), 2000)
	runAll(c)
	if f := c.ROBOccupancyFrac(); f < 0.3 {
		t.Fatalf("mean ROB occupancy %g too low for a load-bound trace", f)
	}
	if f := c.InstantROBOccupancyFrac(); f < 0 || f > 1 {
		t.Fatalf("instant occupancy %g out of range", f)
	}
}
