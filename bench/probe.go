package main

import (
	"runtime"
	"time"
)

// probeWords sizes the probe table at 4 MiB: larger than a core's private
// caches, so the probe feels the same co-tenants and memory contention the
// simulator does. Of the table sizes tried from 32 KiB to 32 MiB, 4 MiB and
// larger explained the simulator's slowdowns best.
const probeWords = 4 << 20 / 8

// prober measures host speed with code that never changes with the
// simulator, so its rate tracks only the host. A host-time measurement
// taken between two probes is rescaled to the reference host by
// measured/ref: durations are multiplied by that factor and rates divided
// by it, which puts runs made on a busy and on a quiet machine on one scale.
//
// The probe runs on one goroutine for every workload, with one reference
// rate. One goroutine per campaign worker did not make the campaign's
// calibrated numbers steady either.
type prober struct {
	steps int
	ref   float64 // reference rate, Mops/s
	table []uint64
	last  float64   // the most recent rate; 0 before the first probe
	rates []float64 // every rate measured, Mops/s
	sink  uint64
}

func newProber(steps int, ref float64) *prober {
	return &prober{steps: steps, ref: ref, table: make([]uint64, probeWords)}
}

// probeKernel is the fixed probe: xorshift-indexed read-modify-write
// steps. Changing it rescales every calibrated number in the ledger.
func probeKernel(t []uint64, steps int, x uint64) uint64 {
	mask := uint64(len(t) - 1)
	for i := 0; i < steps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		t[x&mask] += x
	}
	return x
}

// measure runs the probe and returns its rate in Mops/s. It collects
// garbage first, so that no background collection competes with the probe
// and the next timed operation starts from the same heap state as every
// other.
func (p *prober) measure() float64 {
	runtime.GC()
	start := time.Now()
	p.sink ^= probeKernel(p.table, p.steps, 1)
	p.last = float64(p.steps) / time.Since(start).Seconds() / 1e6
	p.rates = append(p.rates, p.last)
	return p.last
}

// time runs fn between two probes and returns its raw duration and the
// calibration factor measured/ref for it. The closing probe opens the next
// call, so back-to-back operations cost one probe each.
func (p *prober) time(fn func()) (raw time.Duration, factor float64) {
	if p.last == 0 {
		p.measure()
	}
	before := p.last
	start := time.Now()
	fn()
	raw = time.Since(start)
	return raw, p.factor(before, p.measure())
}

// factor is the calibration of a measurement taken between probes that
// ran at before and after Mops/s.
func (p *prober) factor(before, after float64) float64 { return (before + after) / 2 / p.ref }
