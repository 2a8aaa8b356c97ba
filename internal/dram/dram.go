// Package dram models the main-memory controller behind the LLC: a set of
// banks with open-row policy, bank busy times that create queueing
// contention (the mechanism by which useless page-cross prefetches steal
// bandwidth from demands), and a per-line bus transfer time derived from
// the 3200 MT/s channel of the paper's Table IV.
package dram

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/metrics"
)

// Config parameterises the memory controller. All times are core cycles
// (4 GHz core per Table IV).
type Config struct {
	Channels int
	Banks    int // banks per channel
	RowBytes uint64

	TCAS uint64 // column access (row-buffer hit) latency
	TRCD uint64 // activate latency
	TRP  uint64 // precharge latency
	// TransferCycles is the bus occupancy per 64B line. 3200 MT/s with a
	// 8B-wide channel moves 64B in 8 bus transfers ≈ 10 core cycles at 4GHz.
	TransferCycles uint64
	// BaseLatency covers controller queueing/command overhead per access.
	BaseLatency uint64
}

// DefaultConfig matches Table IV (single channel, DDR4-3200-class timings
// expressed in 4 GHz core cycles).
func DefaultConfig() Config {
	return Config{
		Channels:       1,
		Banks:          16,
		RowBytes:       8 << 10,
		TCAS:           55, // ~13.75ns
		TRCD:           55,
		TRP:            55,
		TransferCycles: 10,
		BaseLatency:    40,
	}
}

// Validate checks structural parameters.
func (c Config) Validate() error {
	if c.Channels <= 0 || c.Banks <= 0 {
		return fmt.Errorf("dram: channels %d and banks %d must be positive", c.Channels, c.Banks)
	}
	if c.RowBytes == 0 || c.RowBytes%mem.LineSize != 0 {
		return fmt.Errorf("dram: row size %d must be a multiple of the line size", c.RowBytes)
	}
	return nil
}

// Stats counts controller activity.
type Stats struct {
	Reads      uint64
	Writes     uint64
	RowHits    uint64
	RowMisses  uint64
	TotalDelay uint64 // accumulated (ready - arrival) over all accesses
}

type bank struct {
	openRow uint64
	hasRow  bool
	// demandFree is the busy horizon demand-class requests queue behind;
	// anyFree additionally includes prefetch-class occupancy. Keeping two
	// horizons approximates the demand-over-prefetch priority of a real
	// scheduler (and of ChampSim's RQ/PQ split): prefetches yield to later
	// demands, while prefetches queue behind everything.
	demandFree uint64
	anyFree    uint64
}

// DRAM implements cache.Level as the bottom of the hierarchy.
type DRAM struct {
	cfg   Config
	banks []bank
	Stats Stats

	// latHist samples per-access latency (ready − arrival, queueing
	// included) when the controller is registered in a metrics registry.
	latHist *metrics.Histogram
}

// New builds a controller.
func New(cfg Config) (*DRAM, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &DRAM{
		cfg:   cfg,
		banks: make([]bank, cfg.Channels*cfg.Banks),
	}, nil
}

// bankOf maps a physical address to a bank. The mapping is page-interleaved
// (hashed frame number) rather than line-interleaved: a stream within one
// 4KB frame stays in one bank and enjoys row-buffer hits, while concurrent
// accesses to other frames — demand or prefetch — spread across banks and
// proceed in parallel. This stands in for the reordering an FR-FCFS
// scheduler would do in a real controller, which the synchronous model
// cannot express.
func (d *DRAM) bankOf(pa mem.PAddr) *bank {
	h := pa.PageID() * 0x9E3779B97F4A7C15
	return &d.banks[(h>>32)%uint64(len(d.banks))]
}

func (d *DRAM) rowOf(pa mem.PAddr) uint64 {
	return uint64(pa) / d.cfg.RowBytes
}

// Access implements cache.Level.
func (d *DRAM) Access(req *cache.Request, cycle uint64) uint64 {
	if req.Type == mem.Writeback {
		d.Stats.Writes++
	} else {
		d.Stats.Reads++
	}
	b := d.bankOf(req.PA)
	row := d.rowOf(req.PA)

	// Demand-class traffic (demand accesses and page-table reads) queues
	// only behind demand occupancy; prefetch-class traffic (prefetches)
	// queues behind everything. See the bank type comment. The caches
	// send no writebacks down (a dirty eviction only counts Writebacks),
	// so a simulation's Writes stays 0.
	demandClass := req.Type.IsDemand() || req.Type == mem.PTWRead
	start := cycle
	if demandClass {
		if b.demandFree > start {
			start = b.demandFree
		}
	} else if b.anyFree > start {
		start = b.anyFree
	}

	// The requester pays the full access latency; the bank is busy only for
	// the non-pipelinable part (activate/precharge on a row miss, plus the
	// data transfer), so back-to-back row hits stream at bus rate.
	var lat, busy uint64
	if b.hasRow && b.openRow == row {
		d.Stats.RowHits++
		lat = d.cfg.TCAS
		busy = d.cfg.TransferCycles
	} else {
		d.Stats.RowMisses++
		lat = d.cfg.TRP + d.cfg.TRCD + d.cfg.TCAS
		busy = d.cfg.TRP + d.cfg.TRCD + d.cfg.TransferCycles
		b.openRow = row
		b.hasRow = true
	}
	ready := start + d.cfg.BaseLatency + lat + d.cfg.TransferCycles
	if demandClass {
		b.demandFree = start + busy
	}
	if start+busy > b.anyFree {
		b.anyFree = start + busy
	}
	d.Stats.TotalDelay += ready - cycle
	d.latHist.Observe(ready - cycle)
	return ready
}

// RegisterMetrics exports the controller's counters and its access-latency
// distribution into a metrics registry under prefix ("dram").
func (d *DRAM) RegisterMetrics(r *metrics.Registry, prefix string) {
	r.Source(prefix, &d.Stats)
	// Buckets span a row hit under no contention (~105 cycles with Table IV
	// timings) out to heavily queued accesses.
	d.latHist = r.Histogram(prefix+".latency",
		[]uint64{110, 140, 180, 230, 300, 400, 600, 1000, 2000, 5000})
}

// EmitMetrics implements metrics.Source: every controller counter.
func (s *Stats) EmitMetrics(emit metrics.Emit) {
	const c = metrics.KindCounter
	emit("reads", c, s.Reads)
	emit("writes", c, s.Writes)
	emit("row_hits", c, s.RowHits)
	emit("row_misses", c, s.RowMisses)
	emit("total_delay", c, s.TotalDelay)
}
