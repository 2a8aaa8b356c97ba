// Command tracegen records synthetic workloads into the repository's binary
// trace format (.pgct) and inspects existing trace files. A recorded trace
// replays bit-identically through pgcsim -trace when it holds at least
// warmup + instrs + 352 instructions (the ROB size): the core fetches up to
// a full ROB past the last instruction it retires, and a shorter recording
// runs dry before the named run would. That makes cross-machine
// reproduction and trace sharing possible without shipping the generators.
//
// Examples:
//
//	tracegen -workload gap.graph_s00 -n 1000000 -o graph.pgct
//	tracegen -workload gap.graph_s00 -emit-wdl > graph.wdl
//	tracegen -inspect graph.pgct
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/trace"
	"repro/internal/wdl"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to record (see pgcsim -list)")
		n        = flag.Int("n", 500_000, "instructions to record")
		out      = flag.String("o", "trace.pgct", "output file")
		inspect  = flag.String("inspect", "", "print a summary of an existing trace file and exit")
		emitWDL  = flag.Bool("emit-wdl", false, "print the workload's canonical .wdl description to stdout instead of recording a trace")
	)
	flag.Parse()

	if *inspect != "" {
		if err := inspectTrace(*inspect); err != nil {
			fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *workload == "" {
		fmt.Fprintln(os.Stderr, "tracegen: -workload or -inspect required")
		os.Exit(1)
	}
	w, ok := trace.ByName(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "tracegen: unknown workload %q\n", *workload)
		os.Exit(1)
	}
	if *emitWDL {
		// The canonical form round-trips: piping this into
		// `pgcsim -workload-file -` reproduces the registry workload exactly.
		os.Stdout.Write(wdl.Format(w))
		return
	}
	r, err := w.NewReader()
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(1)
	}
	instrs := trace.Record(r, *n)
	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := trace.WriteTrace(f, instrs); err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d instructions of %s to %s\n", len(instrs), w.Name, *out)
}

func inspectTrace(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	instrs, err := trace.ReadTrace(f)
	if err != nil {
		return err
	}
	var loads, stores, branches, taken int
	pages := map[uint64]bool{}
	pcs := map[uint64]bool{}
	for _, in := range instrs {
		pcs[in.PC] = true
		switch in.Kind {
		case trace.Load:
			loads++
			pages[in.Addr>>12] = true
		case trace.Store:
			stores++
			pages[in.Addr>>12] = true
		case trace.Branch:
			branches++
			if in.Taken {
				taken++
			}
		}
	}
	fmt.Printf("instructions  %d\n", len(instrs))
	fmt.Printf("loads         %d (%.1f%%)\n", loads, 100*float64(loads)/float64(len(instrs)))
	fmt.Printf("stores        %d (%.1f%%)\n", stores, 100*float64(stores)/float64(len(instrs)))
	fmt.Printf("branches      %d (%.1f%% taken)\n", branches, 100*float64(taken)/float64(max(branches, 1)))
	fmt.Printf("data pages    %d (%.1f MB footprint)\n", len(pages), float64(len(pages))*4/1024)
	fmt.Printf("distinct PCs  %d\n", len(pcs))
	return nil
}
