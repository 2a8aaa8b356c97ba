// Package cpu models the out-of-order core of Table IV: a 6-wide, 352-entry
// ROB machine with a decoupled front-end, driven by an instruction trace.
//
// The model is deliberately first-order, in the ChampSim tradition: each
// cycle the core retires up to Width completed instructions in order from
// the ROB head and dispatches up to Width new ones. Loads complete at the
// cycle the memory hierarchy returns; everything else completes after a
// fixed execute latency. The front-end stalls dispatch while an instruction
// cache fetch is outstanding. This captures the effects the paper's
// mechanisms act through — ROB pressure under load misses, MLP bounded by
// MSHRs, IPC sensitivity to miss latency — without modelling renaming or
// issue ports.
//
// The core is resumable in bounded cycle quanta (StepCycles) so the
// multi-core simulator can interleave cores over shared levels.
package cpu

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Ports connects the core to the memory system. Each function performs the
// access at the given cycle and returns the data-ready cycle.
type Ports struct {
	// Fetch is the instruction-fetch path (iTLB + L1I), called once per
	// new instruction cache line.
	Fetch func(pc uint64, cycle uint64) uint64
	// Load is the data-load path (dTLB + L1D + prefetcher).
	Load func(pc, va uint64, cycle uint64) uint64
	// Store is the data-store path. Stores retire without waiting (the
	// store buffer absorbs latency) but the access still updates cache
	// state.
	Store func(pc, va uint64, cycle uint64) uint64
	// Epoch, if non-nil, fires every EpochInstrs retired instructions.
	Epoch func(cycle, retired uint64)
}

// Config sizes the core.
type Config struct {
	Width       int
	ROBSize     int
	ExecLatency uint64
	// MispredictPenalty is the front-end bubble charged per branch
	// misprediction (redirect + refill).
	MispredictPenalty uint64
	// EpochInstrs is the retired-instruction period of the Epoch callback.
	EpochInstrs uint64
	// ReplayOnEnd restarts the trace when it runs out (multi-core replay,
	// §IV-A2); when false the core simply stops at trace end.
	ReplayOnEnd bool
	// DisableIdleSkip forces cycle-by-cycle stepping even through cycles
	// where neither retire nor dispatch can make progress. The event-driven
	// skip is bit-exact with the cycle-by-cycle reference (the lockstep
	// tests prove it); this switch exists so those tests — and anyone
	// debugging a suspected skip bug — can run the reference model.
	DisableIdleSkip bool
}

// DefaultConfig matches Table IV.
func DefaultConfig() Config {
	return Config{
		Width: 6, ROBSize: 352, ExecLatency: 1,
		MispredictPenalty: 12, EpochInstrs: 20000,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Width <= 0 || c.ROBSize <= 0 {
		return fmt.Errorf("cpu: width %d and ROB %d must be positive", c.Width, c.ROBSize)
	}
	return nil
}

// Core is one simulated core.
type Core struct {
	cfg   Config
	ports Ports

	rob   []uint64 // completion cycles, ring buffer
	robPC []uint64 // dispatching PC per ROB entry (watchdog diagnostics)
	head  int
	count int

	reader     trace.Reader
	budget     uint64
	fetchAvail uint64
	fetchLine  uint64
	hasFetch   bool
	pendingIn  trace.Instr
	hasPending bool
	traceEnded bool

	cycle     uint64
	nextEpoch uint64

	// Forward-progress bookkeeping for the watchdog. Unlike Stats these
	// are never reset, so progress checks survive ResetStats at the
	// warmup/measurement boundary.
	retiredTotal uint64
	lastRetire   uint64

	// Monotonicity witnesses for CheckInvariants: the clock and the
	// lifetime retire count observed at the previous sweep. The event-driven
	// idle skip advances the clock in jumps; these prove it never moves
	// backwards between any two checks.
	checkedCycle   uint64
	checkedRetired uint64

	// BP is the hashed perceptron branch predictor (Table IV).
	BP *BranchPredictor

	// Stats accumulates core activity; the simulator may zero it after
	// warmup.
	Stats *stats.CoreStats
}

// New builds a core.
func New(cfg Config, ports Ports) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ports.Fetch == nil || ports.Load == nil || ports.Store == nil {
		return nil, fmt.Errorf("cpu: all memory ports must be connected")
	}
	return &Core{
		cfg:       cfg,
		ports:     ports,
		rob:       make([]uint64, cfg.ROBSize),
		robPC:     make([]uint64, cfg.ROBSize),
		BP:        NewBranchPredictor(),
		Stats:     &stats.CoreStats{},
		nextEpoch: cfg.EpochInstrs,
	}, nil
}

// Attach points the core at a trace with an instruction budget (retired
// instructions). Attach may be called again to continue with a new budget.
// The epoch cadence is deliberately left alone: re-arming it here would let
// a caller that drives the core in short segments (interval sampling)
// starve the Epoch callback — and with it every adaptive policy — forever.
func (c *Core) Attach(r trace.Reader, budget uint64) {
	c.reader = r
	c.budget = budget
	c.traceEnded = false
}

// ResetStats zeroes the statistics and restarts the epoch cadence from the
// new zero point, preserving all microarchitectural state. Callers that
// zero Stats directly would leave nextEpoch stranded past the reset
// instruction count, silencing the Epoch callback for EpochInstrs.
func (c *Core) ResetStats() {
	*c.Stats = stats.CoreStats{}
	c.nextEpoch = c.cfg.EpochInstrs
}

// Cycle returns the core's current cycle.
func (c *Core) Cycle() uint64 { return c.cycle }

// Done reports whether the instruction budget has been retired (or the
// trace ended without replay and the ROB has drained).
func (c *Core) Done() bool {
	return c.budget == 0 || (c.traceEnded && c.count == 0)
}

// next returns the next instruction, honouring replay semantics.
func (c *Core) next() (trace.Instr, bool) {
	if c.hasPending {
		c.hasPending = false
		return c.pendingIn, true
	}
	in, ok := c.reader.Next()
	if !ok {
		if !c.cfg.ReplayOnEnd {
			c.traceEnded = true
			return trace.Instr{}, false
		}
		c.reader.Reset()
		in, ok = c.reader.Next()
		if !ok {
			c.traceEnded = true
			return trace.Instr{}, false
		}
	}
	return in, true
}

// unread pushes an instruction back (fetch stall before dispatch).
func (c *Core) unread(in trace.Instr) {
	c.pendingIn = in
	c.hasPending = true
}

// StepCycles advances the core by at most n cycles, returning true when the
// budget is exhausted (Done).
func (c *Core) StepCycles(n uint64) bool {
	for i := uint64(0); i < n; {
		if c.Done() {
			return true
		}
		if !c.cfg.DisableIdleSkip {
			if k := c.idleCycles(n - i); k > 0 {
				c.skipIdle(k)
				i += k
				continue
			}
		}
		c.step()
		i++
	}
	return c.Done()
}

// Run drives the core until its budget is retired.
func (c *Core) Run() {
	for !c.Done() {
		if !c.cfg.DisableIdleSkip {
			if k := c.idleCycles(^uint64(0)); k > 0 {
				c.skipIdle(k)
				continue
			}
		}
		c.step()
	}
}

// idleCycles returns the number of cycles (capped at max) that can be
// skipped wholesale because the next cycle provably does nothing: the ROB
// head has not completed (no retire) and the front-end fetch is outstanding
// or the trace is exhausted (no dispatch). The skip distance is the gap to
// the next event — min(head completion, fetch arrival) — so the event-driven
// clock never runs past a cycle where state could change; 0 means the next
// cycle must be stepped in detail.
func (c *Core) idleCycles(max uint64) uint64 {
	cyc := c.cycle
	next := ^uint64(0)
	if c.count > 0 {
		if c.rob[c.head] <= cyc {
			return 0 // retire can proceed this cycle
		}
		next = c.rob[c.head]
	}
	if c.count < c.cfg.ROBSize && !(c.traceEnded && !c.hasPending) {
		if c.fetchAvail <= cyc {
			return 0 // dispatch can proceed this cycle
		}
		if c.fetchAvail < next {
			next = c.fetchAvail
		}
	}
	if next == ^uint64(0) {
		return 0 // no pending event; let step (and Done) decide
	}
	k := next - cyc
	if k > max {
		k = max
	}
	return k
}

// skipIdle advances the clock by k provably-idle cycles, applying exactly
// the per-cycle accounting step would have applied: an ROB-stall cycle per
// cycle when the ROB is non-empty, occupancy-weighted ROB accounting, and
// the cycle counters.
func (c *Core) skipIdle(k uint64) {
	if c.count > 0 {
		c.Stats.ROBStallCycles += k
	}
	c.Stats.ROBOccupancy += uint64(c.count) * k
	c.Stats.Cycles += k
	c.cycle += k
}

// step executes one cycle: retire, then dispatch.
func (c *Core) step() {
	cyc := c.cycle

	// Retire up to Width in order.
	retired := 0
	for retired < c.cfg.Width && c.count > 0 && c.budget > 0 {
		if c.rob[c.head] > cyc {
			break
		}
		c.head = (c.head + 1) % c.cfg.ROBSize
		c.count--
		retired++
		c.budget--
		c.Stats.Instructions++
		if c.cfg.EpochInstrs > 0 && c.Stats.Instructions >= c.nextEpoch {
			c.nextEpoch += c.cfg.EpochInstrs
			if c.ports.Epoch != nil {
				c.ports.Epoch(cyc, c.Stats.Instructions)
			}
		}
	}
	if retired > 0 {
		c.retiredTotal += uint64(retired)
		c.lastRetire = cyc
	} else if c.count > 0 {
		c.Stats.ROBStallCycles++
	}

	// Dispatch up to Width while the front-end has instructions.
	for d := 0; d < c.cfg.Width && c.count < c.cfg.ROBSize; d++ {
		if c.fetchAvail > cyc {
			break // instruction fetch outstanding
		}
		in, ok := c.next()
		if !ok {
			break
		}
		line := in.PC >> mem.LineBits
		if !c.hasFetch || line != c.fetchLine {
			c.hasFetch = true
			c.fetchLine = line
			c.fetchAvail = c.ports.Fetch(in.PC, cyc)
			if c.fetchAvail > cyc {
				c.unread(in) // dispatch resumes when the fetch lands
				break
			}
		}
		var done uint64
		switch in.Kind {
		case trace.Load:
			done = c.ports.Load(in.PC, in.Addr, cyc)
			c.Stats.Loads++
		case trace.Store:
			c.ports.Store(in.PC, in.Addr, cyc)
			done = cyc + c.cfg.ExecLatency
			c.Stats.Stores++
		case trace.Branch:
			done = cyc + c.cfg.ExecLatency
			c.Stats.Branches++
			if !c.BP.PredictAndTrain(in.PC, in.Taken) {
				c.Stats.Mispredicts++
				// Redirect: the front end refetches after the penalty.
				redirect := cyc + c.cfg.MispredictPenalty
				if redirect > c.fetchAvail {
					c.fetchAvail = redirect
				}
				c.hasFetch = false
			}
		default:
			done = cyc + c.cfg.ExecLatency
		}
		tail := (c.head + c.count) % c.cfg.ROBSize
		c.rob[tail] = done
		c.robPC[tail] = in.PC
		c.count++
	}

	c.Stats.ROBOccupancy += uint64(c.count)
	c.Stats.Cycles++
	c.cycle++
}

// RegisterMetrics exports the core's statistics and live pipeline state
// into a metrics registry under prefix ("core"). Counters are views over
// Stats (reset with it); gauges sample the pipeline at snapshot time.
func (c *Core) RegisterMetrics(r *metrics.Registry, prefix string) {
	c.Stats.RegisterMetrics(r, prefix)
	r.GaugeFunc(prefix+".cycle", func() uint64 { return c.cycle })
	r.GaugeFunc(prefix+".retired_total", func() uint64 { return c.retiredTotal })
	r.GaugeFunc(prefix+".last_retire_cycle", func() uint64 { return c.lastRetire })
	r.GaugeFunc(prefix+".rob_occupancy", func() uint64 { return uint64(c.count) })
	r.GaugeFunc(prefix+".rob_size", func() uint64 { return uint64(c.cfg.ROBSize) })
	r.GaugeFunc(prefix+".rob_head_pc", func() uint64 {
		pc, _, _ := c.ROBHead()
		return pc
	})
	r.GaugeFunc(prefix+".rob_head_ready", func() uint64 {
		_, ready, _ := c.ROBHead()
		return ready
	})
}

// RetiredTotal returns the monotonic count of instructions retired over the
// core's whole lifetime, across Attach and ResetStats boundaries. The
// forward-progress watchdog keys off it.
func (c *Core) RetiredTotal() uint64 { return c.retiredTotal }

// LastRetireCycle returns the cycle at which the core last retired at least
// one instruction (0 if it never has).
func (c *Core) LastRetireCycle() uint64 { return c.lastRetire }

// ROBHead returns the PC and completion cycle of the instruction at the ROB
// head; ok is false when the ROB is empty. A head whose ready cycle is far
// beyond the current cycle is the signature of a stuck memory operation.
func (c *Core) ROBHead() (pc, ready uint64, ok bool) {
	if c.count == 0 {
		return 0, 0, false
	}
	return c.robPC[c.head], c.rob[c.head], true
}

// CheckInvariants verifies the core's pipeline invariants: ROB occupancy
// within [0, ROBSize], a head index inside the ring, retire bookkeeping that
// never runs ahead of the core clock, clock/retire monotonicity across the
// event-driven idle skip (time never goes backwards between two sweeps),
// and a budget/ROB relationship that still permits forward progress.
// Returns the first violation, nil when clean.
func (c *Core) CheckInvariants() error {
	if c.count < 0 || c.count > c.cfg.ROBSize {
		return fmt.Errorf("rob-occupancy: %d entries outside [0,%d]", c.count, c.cfg.ROBSize)
	}
	if c.head < 0 || c.head >= c.cfg.ROBSize {
		return fmt.Errorf("rob-head-range: head index %d outside [0,%d)", c.head, c.cfg.ROBSize)
	}
	if c.lastRetire > c.cycle {
		return fmt.Errorf("retire-clock: last retire at cycle %d is ahead of core cycle %d", c.lastRetire, c.cycle)
	}
	if c.retiredTotal < c.Stats.Instructions {
		return fmt.Errorf("retire-count: lifetime retired %d below current-window instructions %d", c.retiredTotal, c.Stats.Instructions)
	}
	if c.cycle < c.checkedCycle {
		return fmt.Errorf("clock-backwards: core cycle %d below previously observed cycle %d", c.cycle, c.checkedCycle)
	}
	if c.retiredTotal < c.checkedRetired {
		return fmt.Errorf("retire-backwards: lifetime retired %d below previously observed %d", c.retiredTotal, c.checkedRetired)
	}
	c.checkedCycle = c.cycle
	c.checkedRetired = c.retiredTotal
	return nil
}

// ROBOccupancyFrac returns the mean ROB occupancy as a fraction of the ROB
// size (the adaptive thresholding scheme's ROB-pressure input).
func (c *Core) ROBOccupancyFrac() float64 {
	if c.Stats.Cycles == 0 {
		return 0
	}
	return float64(c.Stats.ROBOccupancy) / float64(c.Stats.Cycles) / float64(c.cfg.ROBSize)
}

// InstantROBOccupancyFrac returns the current-cycle ROB occupancy fraction.
func (c *Core) InstantROBOccupancyFrac() float64 {
	return float64(c.count) / float64(c.cfg.ROBSize)
}
