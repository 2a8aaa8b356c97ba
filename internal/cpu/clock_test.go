package cpu

import (
	"testing"

	"repro/internal/trace"
)

// clockCase is one lockstep scenario: a trace plus a set of memory-port
// latencies, run on an event-driven core and on the cycle-by-cycle
// reference core (DisableIdleSkip) in parallel. The two must agree on the
// clock and every statistic after every quantum — idle-skip is required to
// be bit-exact, not merely approximately right.
type clockCase struct {
	name     string
	instrs   func() []trace.Instr
	ports    func() Ports
	budget   uint64
	quantum  uint64
	replay   bool
	epochIns uint64
}

// mixTrace builds a deterministic blend of ops, loads, stores and branches
// using a fixed-seed splitmix64 stream (no global RNG).
func mixTrace(n int, seed uint64) []trace.Instr {
	next := func() uint64 {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	ins := make([]trace.Instr, n)
	for i := range ins {
		r := next()
		in := trace.Instr{PC: 0x400000 + (r%64)*4, Kind: trace.Op}
		switch r % 10 {
		case 0, 1, 2:
			in.Kind = trace.Load
			in.Addr = 0x10000 + (next()%4096)*64
		case 3:
			in.Kind = trace.Store
			in.Addr = 0x80000 + (next()%4096)*64
		case 4, 5:
			in.Kind = trace.Branch
			in.Taken = next()%3 == 0
		}
		ins[i] = in
	}
	return ins
}

// latencyPorts derives every latency purely from the access arguments, so
// two cores stepping in lockstep observe identical memory behaviour.
func latencyPorts(fetchLat, loadLat uint64) Ports {
	return Ports{
		Fetch: func(pc uint64, cycle uint64) uint64 { return cycle + fetchLat + pc%3 },
		Load:  func(pc, va uint64, cycle uint64) uint64 { return cycle + loadLat + va%7 },
		Store: func(pc, va uint64, cycle uint64) uint64 { return cycle + 1 },
	}
}

func clockCases() []clockCase {
	return []clockCase{
		{
			name:   "all-ops-fast",
			instrs: func() []trace.Instr { return mixTrace(4000, 1) },
			ports:  func() Ports { return latencyPorts(0, 1) },
			budget: 4000, quantum: 97,
		},
		{
			name:   "slow-loads-deep-stalls",
			instrs: func() []trace.Instr { return mixTrace(2000, 2) },
			ports:  func() Ports { return latencyPorts(0, 400) },
			budget: 2000, quantum: 1000,
		},
		{
			name:   "slow-fetch-frontend-stalls",
			instrs: func() []trace.Instr { return mixTrace(2000, 3) },
			ports:  func() Ports { return latencyPorts(50, 5) },
			budget: 2000, quantum: 64,
		},
		{
			name:   "trace-ends-before-budget",
			instrs: func() []trace.Instr { return mixTrace(500, 4) },
			ports:  func() Ports { return latencyPorts(10, 200) },
			budget: 5000, quantum: 33,
		},
		{
			name:   "replay-on-end",
			instrs: func() []trace.Instr { return mixTrace(300, 5) },
			ports:  func() Ports { return latencyPorts(5, 80) },
			budget: 2000, quantum: 251, replay: true,
		},
		{
			name:   "epoch-callbacks",
			instrs: func() []trace.Instr { return mixTrace(3000, 6) },
			ports:  func() Ports { return latencyPorts(2, 120) },
			budget: 3000, quantum: 500, epochIns: 256,
		},
	}
}

func newClockCore(t *testing.T, tc clockCase, disableSkip bool, epochs *[]uint64) *Core {
	t.Helper()
	cfg := DefaultConfig()
	cfg.ReplayOnEnd = tc.replay
	cfg.DisableIdleSkip = disableSkip
	cfg.EpochInstrs = tc.epochIns
	p := tc.ports()
	if epochs != nil {
		p.Epoch = func(cycle, retired uint64) { *epochs = append(*epochs, cycle, retired) }
	}
	c, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	c.Attach(trace.NewSliceReader(tc.instrs()), tc.budget)
	return c
}

func compareCores(t *testing.T, tc clockCase, fast, ref *Core, when string) {
	t.Helper()
	if fast.cycle != ref.cycle {
		t.Fatalf("%s/%s: cycle %d (skip) != %d (reference)", tc.name, when, fast.cycle, ref.cycle)
	}
	if *fast.Stats != *ref.Stats {
		t.Fatalf("%s/%s: stats diverge:\nskip      %+v\nreference %+v", tc.name, when, *fast.Stats, *ref.Stats)
	}
	if fast.retiredTotal != ref.retiredTotal || fast.count != ref.count || fast.head != ref.head {
		t.Fatalf("%s/%s: pipeline diverges: retired %d/%d count %d/%d head %d/%d",
			tc.name, when, fast.retiredTotal, ref.retiredTotal, fast.count, ref.count, fast.head, ref.head)
	}
}

// TestIdleSkipLockstep drives the event-driven core and the cycle-by-cycle
// reference through identical quanta, asserting bit-exact agreement after
// every quantum, and that the skip core's clock never moves backwards and
// never starves an event (it halts on exactly the same cycle).
func TestIdleSkipLockstep(t *testing.T) {
	for _, tc := range clockCases() {
		t.Run(tc.name, func(t *testing.T) {
			var fastEpochs, refEpochs []uint64
			fast := newClockCore(t, tc, false, &fastEpochs)
			ref := newClockCore(t, tc, true, &refEpochs)
			lastCycle := uint64(0)
			for q := 0; q < 1_000_000; q++ {
				fd := fast.StepCycles(tc.quantum)
				rd := ref.StepCycles(tc.quantum)
				if fast.cycle < lastCycle {
					t.Fatalf("clock went backwards: %d after %d", fast.cycle, lastCycle)
				}
				lastCycle = fast.cycle
				if err := fast.CheckInvariants(); err != nil {
					t.Fatalf("skip core invariants: %v", err)
				}
				compareCores(t, tc, fast, ref, "mid-run")
				if fd != rd {
					t.Fatalf("done diverges: skip %v reference %v", fd, rd)
				}
				if fd {
					break
				}
			}
			if !fast.Done() || !ref.Done() {
				t.Fatal("cores did not finish within the quantum budget")
			}
			compareCores(t, tc, fast, ref, "final")
			if len(fastEpochs) != len(refEpochs) {
				t.Fatalf("epoch count diverges: %d vs %d", len(fastEpochs), len(refEpochs))
			}
			for i := range fastEpochs {
				if fastEpochs[i] != refEpochs[i] {
					t.Fatalf("epoch %d diverges: %d vs %d", i, fastEpochs[i], refEpochs[i])
				}
			}
		})
	}
}

// TestIdleSkipRunEqualsStepCycles verifies one unbounded StepCycles call
// (unbounded skip) lands on the same final state as quantum-bounded stepping — the skip distance cap is a
// scheduling artefact, never a semantic one.
func TestIdleSkipRunEqualsStepCycles(t *testing.T) {
	for _, tc := range clockCases() {
		t.Run(tc.name, func(t *testing.T) {
			ran := newClockCore(t, tc, false, nil)
			runAll(ran)
			stepped := newClockCore(t, tc, false, nil)
			for !stepped.StepCycles(tc.quantum) {
			}
			compareCores(t, tc, ran, stepped, "run-vs-step")
		})
	}
}

// TestIdleSkipSkipsCycles is the sanity check that the fast path actually
// engages: under long-latency loads the skip core must reach the final
// cycle with far fewer step() iterations than cycles simulated. It detects
// a silently disabled skip (which would keep tests green but lose the
// speedup) by bounding detailed steps well below total cycles.
func TestIdleSkipSkipsCycles(t *testing.T) {
	tc := clockCase{
		instrs: func() []trace.Instr { return mixTrace(2000, 7) },
		ports:  func() Ports { return latencyPorts(0, 400) },
		budget: 2000, quantum: 1 << 20,
	}
	c := newClockCore(t, tc, false, nil)
	steps := 0
	for !c.Done() {
		if k := c.idleCycles(^uint64(0)); k > 0 {
			c.skipIdle(k)
			continue
		}
		c.step()
		steps++
	}
	if c.cycle == 0 || uint64(steps) >= c.cycle/2 {
		t.Fatalf("idle skip ineffective: %d detailed steps over %d cycles", steps, c.cycle)
	}
}
