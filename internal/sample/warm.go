package sample

import (
	"repro/internal/mem"
	"repro/internal/trace"
)

// Ops is the functional-warmup surface a simulator exposes: state-only
// accesses that update TLB/cache/page-table residency and replacement
// metadata without touching statistics or timing.
type Ops interface {
	// WarmFetch warms the instruction path for one cache line (iTLB + L1I
	// and below). Called once per new fetch line, like the detailed core.
	WarmFetch(pc uint64)
	// WarmLoad warms the data path for a load (dTLB + L1D and below).
	WarmLoad(va uint64)
	// WarmStore warms the data path for a store, marking the line dirty.
	WarmStore(va uint64)
}

// Warmer drives functional warmup over a trace during sampling gaps. It
// mirrors the detailed front end's fetch behaviour — one instruction-side
// access per new cache line — so the instruction path sees the same line
// stream the core would have fetched.
type Warmer struct {
	// Ops receives the warm accesses.
	Ops Ops
	// Replay restarts the trace at EOF (multi-core replay semantics);
	// when false the warmer reports the end of the trace instead.
	Replay bool

	line    uint64
	hasLine bool
	// Data-side consecutive-line memo. A run of accesses to one line leaves
	// the hierarchy in exactly the state the first access (plus one dirty
	// bit for the first store) left it in: the line is already resident and
	// most-recently-used at every level, so re-touching it cannot reorder
	// any replacement state. Skipping the repeats is therefore a pure
	// speedup with bit-identical warm state — and spatially local traces
	// (several accesses per 64B line) are the common case.
	dataLine  uint64
	hasData   bool
	dataDirty bool

	single singles // adapts a reader without NextBatch
}

// Run consumes up to n instructions from r functionally, returning how many
// it consumed and whether the trace ended (only when Replay is false).
// Readers without NextBatch are read one instruction per batch.
func (w *Warmer) Run(r trace.Reader, n uint64) (consumed uint64, ended bool) {
	// The memos are only exact while no detailed interval intervenes:
	// after detailed execution the remembered lines may no longer be MRU.
	// Run is called per chunk, so clearing here costs at most one redundant
	// access per chunk while guaranteeing no memo ever spans a segment.
	w.hasLine, w.hasData = false, false
	br, ok := r.(trace.BatchReader)
	if !ok {
		w.single.Reader = r
		br = &w.single
	}
	for consumed < n {
		max := n - consumed
		const batchCap = 1 << 15
		if max > batchCap {
			max = batchCap
		}
		batch := br.NextBatch(int(max))
		if len(batch) == 0 {
			if !w.Replay {
				return consumed, true
			}
			br.Reset()
			if batch = br.NextBatch(int(max)); len(batch) == 0 {
				return consumed, true
			}
		}
		for i := range batch {
			in := &batch[i]
			if line := in.PC >> mem.LineBits; !w.hasLine || line != w.line {
				w.hasLine = true
				w.line = line
				w.Ops.WarmFetch(in.PC)
			}
			switch in.Kind {
			case trace.Load:
				if line := in.Addr >> mem.LineBits; !w.hasData || line != w.dataLine {
					w.hasData, w.dataLine, w.dataDirty = true, line, false
					w.Ops.WarmLoad(in.Addr)
				}
			case trace.Store:
				if line := in.Addr >> mem.LineBits; !w.hasData || line != w.dataLine || !w.dataDirty {
					w.hasData, w.dataLine, w.dataDirty = true, line, true
					w.Ops.WarmStore(in.Addr)
				}
			}
		}
		consumed += uint64(len(batch))
	}
	return consumed, false
}

// singles reads a Reader without NextBatch as one-instruction batches, so
// the warmer never takes an instruction beyond its budget. It lives in the
// Warmer so adapting a reader allocates nothing.
type singles struct {
	trace.Reader
	in [1]trace.Instr
}

// NextBatch implements trace.BatchReader.
func (s *singles) NextBatch(int) []trace.Instr {
	in, ok := s.Next()
	if !ok {
		return nil
	}
	s.in[0] = in
	return s.in[:]
}
