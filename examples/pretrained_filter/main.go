// Pretrained filter deployment: train a DRIPPER filter on one workload,
// snapshot its learned weights, and deploy the snapshot into a fresh
// system running a different phase of the same application family. The
// warm filter skips the learning transient — the practical benefit of
// MOKA's tiny, serialisable state (1.4KB of counters).
package main

import (
	"context"
	"fmt"
	"log"

	pagecross "repro"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// runWithFilter runs a workload with an explicitly constructed filter so we
// can snapshot/restore around it.
func runWithFilter(w trace.Workload, f *core.Filter, instrs uint64) (*pagecross.Result, error) {
	cfg := sim.DefaultConfig()
	cfg.WarmupInstrs = 0
	cfg.SimInstrs = instrs
	sys, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	sys.Policy = core.NewFilterPolicy(f)
	reader, err := w.NewReader()
	if err != nil {
		return nil, err
	}
	sys.Core.Attach(reader, instrs)
	if err := sys.Run(context.Background()); err != nil {
		return nil, err
	}
	return sys.Collect(w.Name, w.Suite), nil
}

func main() {
	trainW, _ := trace.ByName("spec.stream_s00")
	deployW, _ := trace.ByName("spec.stream_s05") // same family, new phase

	// Train on the first workload.
	trainFilter, err := core.NewFilter(core.DefaultDripperConfig("berti"))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := runWithFilter(trainW, trainFilter, 200_000); err != nil {
		log.Fatal(err)
	}
	snap := trainFilter.Snapshot()
	blob, err := snap.Encode()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained on %s: %d issued, %d discarded; snapshot %d bytes\n",
		trainW.Name, trainFilter.Issued, trainFilter.Discarded, len(blob))

	// Deploy cold vs warm on the second workload.
	cold, err := core.NewFilter(core.DefaultDripperConfig("berti"))
	if err != nil {
		log.Fatal(err)
	}
	coldRun, err := runWithFilter(deployW, cold, 100_000)
	if err != nil {
		log.Fatal(err)
	}

	warm, err := core.NewFilter(core.DefaultDripperConfig("berti"))
	if err != nil {
		log.Fatal(err)
	}
	decoded, err := core.DecodeFilterSnapshot(blob)
	if err != nil {
		log.Fatal(err)
	}
	if err := warm.Restore(decoded); err != nil {
		log.Fatal(err)
	}
	warmRun, err := runWithFilter(deployW, warm, 100_000)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("deploy on %s (no warmup):\n", deployW.Name)
	fmt.Printf("  cold filter: IPC %.4f, PGC issued %d, dropped %d\n",
		coldRun.IPC(), coldRun.L1D.PGCIssued, coldRun.L1D.PGCDropped)
	fmt.Printf("  warm filter: IPC %.4f, PGC issued %d, dropped %d\n",
		warmRun.IPC(), warmRun.L1D.PGCIssued, warmRun.L1D.PGCDropped)
}
