package cpu

import (
	"strings"
	"testing"

	"repro/internal/trace"
)

func TestCheckInvariants(t *testing.T) {
	newCore := func(t *testing.T) *Core {
		t.Helper()
		c, err := New(DefaultConfig(), fastPorts())
		if err != nil {
			t.Fatal(err)
		}
		c.Attach(opTrace(2000), 2000)
		runAll(c)
		return c
	}

	if err := newCore(t).CheckInvariants(); err != nil {
		t.Fatalf("healthy core violates: %v", err)
	}

	cases := []struct {
		mutate func(c *Core)
		want   string
	}{
		{func(c *Core) { c.count = c.cfg.ROBSize + 1 }, "rob-occupancy:"},
		{func(c *Core) { c.count = -1 }, "rob-occupancy:"},
		{func(c *Core) { c.head = c.cfg.ROBSize }, "rob-head-range:"},
		{func(c *Core) { c.lastRetire = c.cycle + 1 }, "retire-clock:"},
		{func(c *Core) { c.retiredTotal = c.Stats.Instructions - 1 }, "retire-count:"},
	}
	for _, tc := range cases {
		c := newCore(t)
		tc.mutate(c)
		if err := c.CheckInvariants(); err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("CheckInvariants = %v, want %s", err, tc.want)
		}
	}
}

// TestROBRingWraps runs cores whose ROB is 1, 7 and 352 entries through many
// ring wraps, one cycle per step, with loads of mixed latency so the ring
// fills and drains. After every step the invariants hold, the ROB head is
// the oldest unretired instruction with the completion cycle its load
// returned, and at the end every budgeted instruction has retired and every
// dispatched one has either retired or still sits in the ROB. The budget
// wraps even the 352-entry ring 14 times; size 1 wraps the head on every
// retire.
func TestROBRingWraps(t *testing.T) {
	const budget = 5000
	for _, size := range []int{1, 7, 352} {
		// Instruction i is a load at PC 4i, so the head's PC names it.
		ins := make([]trace.Instr, budget+size+DefaultConfig().Width)
		for i := range ins {
			ins[i] = trace.Instr{PC: 0x400000 + uint64(i)*4, Kind: trace.Load, Addr: uint64(i) * 64}
		}
		done := map[uint64]uint64{} // PC → completion cycle
		ports := fastPorts()
		ports.Load = func(pc, va uint64, cycle uint64) uint64 {
			ready := cycle + 1 + (va/64*7919)%40
			done[pc] = ready
			return ready
		}
		cfg := DefaultConfig()
		cfg.ROBSize = size
		c, err := New(cfg, ports)
		if err != nil {
			t.Fatal(err)
		}
		c.Attach(trace.NewSliceReader(ins), budget)
		for steps := 0; !c.Done(); steps++ {
			if steps > 100*budget {
				t.Fatalf("ROB %d: no completion after %d steps", size, steps)
			}
			c.StepCycles(1)
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("ROB %d, cycle %d: %v", size, c.Cycle(), err)
			}
			if pc, ready, ok := c.ROBHead(); ok {
				if want := ins[c.RetiredTotal()].PC; pc != want || ready != done[pc] {
					t.Fatalf("ROB %d, cycle %d: head (pc %#x, ready %d), want (pc %#x, ready %d)", size, c.Cycle(), pc, ready, want, done[want])
				}
			}
		}
		if c.RetiredTotal() != budget || c.Stats.Instructions != budget {
			t.Fatalf("ROB %d: retired %d (stats %d), want %d", size, c.RetiredTotal(), c.Stats.Instructions, budget)
		}
		if d := uint64(len(done)); d != c.Stats.Loads || d != budget+uint64(c.count) {
			t.Fatalf("ROB %d: dispatched %d (stats %d), want retired %d + ROB occupancy %d", size, d, c.Stats.Loads, budget, c.count)
		}
	}
}
