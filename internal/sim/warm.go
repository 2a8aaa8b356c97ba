package sim

import (
	"context"

	"repro/internal/mem"
	"repro/internal/sample"
	"repro/internal/trace"
	"repro/internal/vmem"
)

// Functional warmup runs as a two-stage pipeline. The translate stage, on
// the caller's goroutine, reads the trace and drives the sample.Warmer's
// line memos and the MMU's warm path (TLBs, PSCs, page-table walk). Every
// cache line a serial warm loop would install — page-table lines, fetch
// lines and data lines, in program order — becomes one op in an ordered
// stream. The install stage, on one worker goroutine, applies the
// stream to the L1I and L1D, whose Warm cascades to the L2C and LLC.
//
// The result is exact. The stages share no state: translation never reads
// a cache, and cache installs never read the MMU or the trace. The op
// stream is a single FIFO holding every install in its serial order, so the
// hierarchy passes through the same sequence of states. The caller drains
// the stream before anything else reads or writes a cache — every detailed
// ramp and interval, and every return from warm.

// A warm op is a line-aligned physical address with two flag bits in the
// line-offset bits the caches ignore.
const (
	opStore uint64 = 1 << 0 // install the line dirty
	opInstr uint64 = 1 << 1 // install in the L1I; otherwise the L1D
)

const (
	// warmChunk bounds how many instructions are warmed between
	// cancellation checks; warm throughput is tens of ns/instr, so
	// teardown latency stays around a millisecond.
	warmChunk = 1 << 16
	// warmBatchOps is the number of ops per handoff. Install costs on the
	// order of 100 ns per op, so one channel send per batch is noise.
	warmBatchOps = 1 << 12
	// warmBatches is the number of batch buffers: one filling, the rest
	// queued or installing. It bounds how far translation runs ahead.
	warmBatches = 4
)

// installed is one batch handed back by the install stage: the emptied
// buffer for reuse, and the value of a panic the stage recovered, if any.
type installed struct {
	ops   []uint64
	fault any
}

// warmPipe is one system's functional-warmup pipeline. Its worker and
// buffers live for one run: start it with newWarmPipe and release it with
// stop, which must run on every path out of the run, panics included.
type warmPipe struct {
	s      *System
	warmer sample.Warmer

	// Translate-stage state, owned by the caller's goroutine.
	batch  []uint64   // the batch being filled
	spare  [][]uint64 // returned buffers not yet refilled
	reads  []mem.PAddr
	queued int // batches handed off and not yet returned

	// Both channels hold warmBatches, the number of buffers, so no send
	// blocks: the worker can always return a batch, even while the caller
	// unwinds a panic, and only stop ends its range over full.
	full chan []uint64  // translate → install, in stream order
	free chan installed // install → translate; closed when the worker returns

	bufs [warmBatches][warmBatchOps]uint64
}

// newWarmPipe starts the install stage for s. replay restarts the trace at
// its end (see sample.Warmer).
func (s *System) newWarmPipe(replay bool) *warmPipe {
	p := &warmPipe{
		s:     s,
		spare: make([][]uint64, 0, warmBatches),
		reads: make([]mem.PAddr, 0, vmem.NumLevels),
		full:  make(chan []uint64, warmBatches),
		free:  make(chan installed, warmBatches),
	}
	p.warmer = sample.Warmer{Ops: p, Replay: replay}
	p.batch = p.bufs[0][:0]
	for i := 1; i < warmBatches; i++ {
		p.spare = append(p.spare, p.bufs[i][:0])
	}
	go p.install()
	return p
}

// stop ends the install stage and waits for its goroutine to return. Batches
// still queued (only on a panic path) are installed or skipped first.
func (p *warmPipe) stop() {
	close(p.full)
	for range p.free {
	}
}

// install is the install stage. After a panic the hierarchy is in an unknown
// state, so later batches are returned unapplied; the caller re-raises the
// panic when the faulting batch comes back.
func (p *warmPipe) install() {
	defer close(p.free)
	failed := false
	for ops := range p.full {
		var fault any
		if !failed {
			fault = p.apply(ops)
			failed = fault != nil
		}
		p.free <- installed{ops: ops[:0], fault: fault}
	}
}

// apply installs one batch in order, returning the value of any panic.
func (p *warmPipe) apply(ops []uint64) (fault any) {
	defer func() { fault = recover() }()
	l1i, l1d := p.s.L1I, p.s.L1D
	for _, op := range ops {
		pa := mem.PAddr(op &^ (opStore | opInstr))
		if op&opInstr != 0 {
			l1i.Warm(pa, false)
		} else {
			l1d.Warm(pa, op&opStore != 0)
		}
	}
	return nil
}

// warm fast-forwards n instructions functionally, honouring ctx at chunk
// boundaries, and drains the install stage before returning. ended reports
// trace exhaustion (only without replay).
func (p *warmPipe) warm(ctx context.Context, r trace.Reader, n uint64) (ended bool, err error) {
	ended, err = warmChunks(ctx, &p.warmer, r, n)
	p.drain()
	return ended, err
}

// warmup functionally warms n instructions of r, replaying the trace at its
// end, through a pipeline that lives for this one call: a multi-core run's
// per-core warmup phase.
func (s *System) warmup(ctx context.Context, r trace.Reader, n uint64) error {
	p := s.newWarmPipe(true)
	defer p.stop()
	_, err := p.warm(ctx, r, n)
	return err
}

// warmChunks runs w over n instructions of r in warmChunk steps, checking
// ctx between steps.
func warmChunks(ctx context.Context, w *sample.Warmer, r trace.Reader, n uint64) (ended bool, err error) {
	for n > 0 {
		c := uint64(warmChunk)
		if c > n {
			c = n
		}
		consumed, end := w.Run(r, c)
		n -= consumed
		if end {
			return true, nil
		}
		if err := ctx.Err(); err != nil {
			return false, err
		}
	}
	return false, nil
}

// WarmFetch implements sample.Ops: the functional instruction path. The
// iTLB/sTLB/PSC hierarchy and the instruction-side caches update their
// residency and replacement state; no statistics move and no timing is
// modelled. Instruction prefetchers do not train on warm traffic — the
// detailed ramp preceding each measured interval re-trains them.
func (p *warmPipe) WarmFetch(pc uint64) {
	va := mem.VAddr(pc)
	tr, reads := p.s.MMU.WarmInstr(va, p.reads[:0])
	p.walked(reads)
	p.emit(uint64(tr.PA(va).Line()) | opInstr)
}

// WarmLoad implements sample.Ops: the functional data-load path.
func (p *warmPipe) WarmLoad(va uint64) { p.warmData(va, 0) }

// WarmStore implements sample.Ops: the functional data-store path; the
// warmed line is installed (or marked) dirty, so the Writebacks a dirty
// eviction counts after the gap match what detailed execution would have
// counted (no writeback is sent below in either mode).
func (p *warmPipe) WarmStore(va uint64) { p.warmData(va, opStore) }

func (p *warmPipe) warmData(va, flags uint64) {
	v := mem.VAddr(va)
	tr, reads := p.s.MMU.WarmData(v, p.reads[:0])
	p.walked(reads)
	p.emit(uint64(tr.PA(v).Line()) | flags)
}

// walked emits a warm walk's page-table reads, which a detailed walk issues
// into the L1D ahead of the access it translates.
func (p *warmPipe) walked(reads []mem.PAddr) {
	p.reads = reads
	for _, pa := range reads {
		p.emit(uint64(pa.Line()))
	}
}

// emit appends one op to the stream, handing the batch off when full.
func (p *warmPipe) emit(op uint64) {
	p.batch = append(p.batch, op)
	if len(p.batch) == warmBatchOps {
		p.handoff()
	}
}

// handoff queues the current batch for the install stage and takes an empty
// buffer, waiting for one to come back when none is spare.
func (p *warmPipe) handoff() {
	p.full <- p.batch
	p.queued++
	if n := len(p.spare); n > 0 {
		p.batch, p.spare = p.spare[n-1], p.spare[:n-1]
		return
	}
	p.batch = p.reclaim()
}

// reclaim waits for the install stage to return one batch and re-raises, on
// the caller's goroutine, any panic the batch's installs raised.
func (p *warmPipe) reclaim() []uint64 {
	done := <-p.free
	p.queued--
	if done.fault != nil {
		panic(done.fault)
	}
	return done.ops
}

// drain hands off the partial batch and waits until the install stage has
// applied every op emitted so far.
func (p *warmPipe) drain() {
	if len(p.batch) > 0 {
		p.handoff()
	}
	for p.queued > 0 {
		p.spare = append(p.spare, p.reclaim())
	}
}
