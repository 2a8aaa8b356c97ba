package main

import (
	"bufio"
	"fmt"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/stats"
)

// hostModules are the buckets of the CPU-time split: the simulator's
// modules under repro/internal, "bench" for this command's own code (the
// probe and the timing shims), "runtime" for stacks with no caller in
// either (background GC, the scheduler), and "other" for the remaining
// internal packages.
var hostModules = []string{
	"cache", "core", "prefetch", "tlb", "ptw", "mmu", "vmem", "dram", "cpu",
	"trace", "sample", "sim", "metrics", "campaign", "runtime", "bench", "other",
}

// moduleOf names the module a profile frame belongs to, or "" for the Go
// runtime and standard library, whose time is charged to their caller.
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			rest = rest[:i]
		}
		for _, m := range hostModules {
			if m == rest {
				return m
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	return ""
}

// attribute parses the output of `go tool pprof -traces` and charges each
// sample to the innermost frame of a module. It returns CPU seconds per
// module and the profile's total.
func attribute(traces string) (map[string]float64, float64, error) {
	secs := map[string]float64{}
	total := 0.0
	var value time.Duration
	module := ""
	inTrace := false
	flush := func() {
		if !inTrace {
			return
		}
		if module == "" {
			module = "runtime"
		}
		secs[module] += value.Seconds()
		total += value.Seconds()
	}
	sc := bufio.NewScanner(strings.NewReader(traces))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inTrace, module, value = false, "", 0
			continue
		}
		// A trace is its sample value and innermost frame, then one caller
		// per line, each function name possibly followed by "(inline)".
		fields := strings.Fields(line)
		switch {
		case len(fields) == 0:
			continue
		case !inTrace && line[0] != ' ':
			continue // the header: File, Type, Duration
		case !inTrace:
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return nil, 0, fmt.Errorf("pprof -traces: unexpected trace line %q", line)
			}
			inTrace, value, fields = true, d, fields[1:]
		}
		if module == "" {
			module = moduleOf(fields[0])
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if total == 0 {
		return nil, 0, fmt.Errorf("pprof -traces: the profile holds no samples")
	}
	return secs, total, nil
}

// layerInputs are a traced pass's measurements beyond its layer counters.
type layerInputs struct {
	cpu      map[string]float64 // CPU seconds per host module
	cpuTotal float64
	factor   float64 // the pass's calibration, measured/ref
	buildMs  float64
	// The campaign layer's per-cell calls, timed directly.
	keyUs, putUs, getUs float64
	// execMs is each executed cell's time; opMs each operation's latency.
	execMs, opMs []float64
	// queueWaitFrac is the share of campaign cells' time spent waiting for
	// a worker; a closed loop with one operation in flight never waits.
	queueWaitFrac, busyFrac, warmHitFrac float64
	fidelity                             []fidelityRow
	dripperVsDiscard                     float64
	rawKips, overhead, hostMops          float64
	// coldS is one untraced pass over every cell: a cold campaign run, or
	// one round of the other workloads' cells.
	coldS float64
	gcs   uint32
}

// perLayer computes the per-layer metrics. Host times are calibrated to
// the reference host; a rate over an event the workload never produced
// reads 0.
func perLayer(in layerInputs, c *layerCounts, emptyNs float64) map[string]metricValue {
	r := &c.run
	ki := float64(r.Core.Instructions) / 1e3
	m := map[string]metricValue{}
	set := func(name, unit string, v float64) { m[name] = metricValue{v, unit} }
	for _, mod := range hostModules {
		set("host."+mod+".frac", "frac", ratio(in.cpu[mod], in.cpuTotal))
	}
	// nsPer is a module's CPU time per event of its own. The profile also
	// covers warm-up, whose events the statistics do not count, so the
	// events are scaled from the measured instructions to all covered ones.
	// On sampled runs the statistics count only the detailed intervals.
	nsPer := func(mod string, events uint64) float64 {
		return ratio(in.cpu[mod]*1e9*in.factor, float64(events)*ratio(float64(c.covered), float64(r.Core.Instructions)))
	}

	cacheAccesses := r.L1I.DemandAccesses + r.L1D.DemandAccesses + r.L2C.DemandAccesses + r.LLC.DemandAccesses
	set("cache.l1d.mpki", "misses/kinstr", ratio(float64(r.L1D.DemandMisses), ki))
	set("cache.l2c.mpki", "misses/kinstr", ratio(float64(r.L2C.DemandMisses), ki))
	set("cache.llc.mpki", "misses/kinstr", ratio(float64(r.LLC.DemandMisses), ki))
	set("cache.l1d.pf_fills_pki", "fills/kinstr", ratio(float64(r.L1D.PrefetchFills), ki))
	set("cache.l1d.mshr_full_waits_pki", "waits/kinstr", ratio(float64(r.L1D.MSHRFullWaits), ki))
	set("host.cache.ns_per_access", "ns", nsPer("cache", cacheAccesses))

	set("core.decide_ns", "ns", c.decide.perCall(emptyNs)*in.factor)
	set("core.train_ns", "ns", c.train.perCall(emptyNs)*in.factor)
	set("core.pgc_decisions_pki", "calls/kinstr", ratio(float64(c.decide.calls), float64(c.policyInstrs)/1e3))
	set("core.pgc_issued_frac", "frac", ratio(float64(c.issued), float64(c.decide.calls)))
	set("core.pgc_useful_frac", "frac", r.L1D.PGCAccuracy())
	set("core.pgc_useless_pki", "blocks/kinstr", ratio(float64(r.L1D.PGCUseless), ki))
	set("core.dripper_vs_discard_pct", "%", in.dripperVsDiscard)

	trains := c.reg["prefetch.l1d.trains"]
	set("prefetch.l1d.trains_pki", "trains/kinstr", ratio(float64(trains), ki))
	set("prefetch.l1d.candidates_per_train", "count", ratio(float64(c.reg["prefetch.l1d.candidates"]), float64(trains)))
	set("host.prefetch.ns_per_train", "ns", nsPer("prefetch", trains))

	walks := r.PTW.Walks + r.PTW.SpeculativeWalks
	set("tlb.dtlb.mpki", "misses/kinstr", ratio(float64(r.DTLB.DemandMisses), ki))
	set("tlb.stlb.mpki", "misses/kinstr", ratio(float64(r.STLB.DemandMisses), ki))
	set("ptw.walks_pki", "walks/kinstr", ratio(float64(r.PTW.Walks), ki))
	set("ptw.spec_walks_pki", "walks/kinstr", ratio(float64(r.PTW.SpeculativeWalks), ki))
	set("ptw.psc_hits_per_walk", "count", ratio(float64(r.PTW.PSCHits), float64(walks)))
	set("host.ptw.ns_per_walk", "ns", nsPer("ptw", walks))

	rowHits, rowMisses := c.reg["dram.row_hits"], c.reg["dram.row_misses"]
	set("dram.reads_pki", "reads/kinstr", ratio(float64(c.reg["dram.reads"]), ki))
	set("dram.row_hit_frac", "frac", ratio(float64(rowHits), float64(rowHits+rowMisses)))

	set("cpu.ipc", "instr/cycle", r.Core.IPC())
	set("cpu.rob_stall_frac", "frac", ratio(float64(r.Core.ROBStallCycles), float64(r.Core.Cycles)))

	set("trace.next_ns", "ns", ratio(c.next.net(emptyNs), float64(c.instrs))*in.factor)

	detail := 1.0 // full detail measures every instruction of its budget
	if c.reg["sample.segments"] > 0 {
		detail = ratio(float64(c.reg["sample.measured_instrs"]), float64(c.budget))
	}
	set("sample.detail_frac", "frac", detail)
	set("sample.segments", "count", ratio(float64(c.reg["sample.segments"]), float64(c.runs)))
	set("sample.ipc_err_pct", "%", meanErr(in.fidelity, fidelityRow.ipcErrPct))
	set("sample.pgc_pki_err_pct", "%", meanErr(in.fidelity, fidelityRow.pgcErrPct))

	execSum := 0.0
	for _, ms := range in.execMs {
		execSum += ms
	}
	set("sim.build_ms", "ms", in.buildMs)
	set("sim.run_ns_per_instr", "ns", ratio(execSum*1e6, float64(c.covered)))

	set("campaign.key_us", "us", in.keyUs)
	set("campaign.store_put_us", "us", in.putUs)
	set("campaign.store_get_us", "us", in.getUs)
	set("campaign.cell_exec_s_p50", "s", median(in.execMs)/1e3)
	set("campaign.queue_wait_frac", "frac", in.queueWaitFrac)
	set("campaign.worker_busy_frac", "frac", in.busyFrac)
	set("campaign.warm_hit_frac", "frac", in.warmHitFrac)

	tail := tailPermille(len(in.opMs))
	if tail == 0 {
		tail = 500
	}
	set("bench.op_ms_tail", "ms", quantile(in.opMs, float64(tail)/1000))
	set("bench.raw_kips", "kinstr/s", in.rawKips)
	set("bench.cold_round_s", "s", in.coldS)
	set("bench.host_mops", "Mops/s", in.hostMops)
	set("bench.trace_overhead_frac", "frac", in.overhead)
	set("runtime.gc_per_minstr", "gc/Minstr", ratio(float64(in.gcs), float64(c.covered)/1e6))
	return m
}

// timeKeyStore times the campaign layer's per-cell calls on a workload's
// cells and results: campaign.KeyOf, Store.Put into a fresh store and
// Store.Get back, which must return every result byte-identical. It
// returns calibrated medians in microseconds.
func timeKeyStore(e *env, cells []cell, runs []*stats.Run) (keyUs, putUs, getUs float64) {
	store, err := campaign.OpenStore(e.work + "/store")
	if !e.record(wrapf(err, "opening a result store")) {
		return 0, 0, 0
	}
	var key, put, get []float64
	us := func(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e3 }
	_, f := e.probe.time(func() {
		for n := 0; n < max(100, len(cells)); n++ {
			i := n % len(cells)
			c, run := cells[i], runs[i]
			if run == nil {
				continue // the cell failed; its failure is already counted
			}
			t := time.Now()
			k, err := campaign.KeyOf(c.cfg, c.w)
			key = append(key, us(t))
			if err == nil {
				t = time.Now()
				err = store.Put(k, []*stats.Run{run})
				put = append(put, us(t))
			}
			if err == nil {
				t = time.Now()
				got, ok := store.Get(k)
				get = append(get, us(t))
				if !ok || len(got) != 1 || digest(got[0]) != digest(run) {
					err = fmt.Errorf("the stored result does not read back")
				}
			}
			e.record(wrapf(err, "%s: key and store round trip", c.id))
		}
	})
	return median(key) * f, median(put) * f, median(get) * f
}
