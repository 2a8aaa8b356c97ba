package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestFidelityMatchesGolden ties the sampled workload's fidelity metrics to
// the repository's own gate: at seed 0 the fidelity step reproduces every
// row of internal/sim's sampled-accuracy golden table, full and sampled IPC
// and page-cross PKI, to the precision the table prints.
func TestFidelityMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every family for a million instructions, full and sampled")
	}
	b, err := os.ReadFile("../internal/sim/testdata/golden/sampled_accuracy.txt")
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string][]string{}
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) == 8 && !strings.HasPrefix(line, "#") && f[0] != "family" {
			golden[f[0]] = f[1:]
		}
	}
	rows, _, err := fidelity(context.Background(), 0, scales["full"])
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(golden) {
		t.Fatalf("%d fidelity rows, golden table has %d", len(rows), len(golden))
	}
	var goldenIPCErr float64
	for _, r := range rows {
		g, ok := golden[r.name]
		if !ok {
			t.Errorf("%s: not in the golden table", r.name)
			continue
		}
		got := []string{
			fmt.Sprintf("%.4f", r.fullIPC), fmt.Sprintf("%.4f", r.sampIPC), fmt.Sprintf("%.3f", r.ipcErrPct()),
			fmt.Sprintf("%.3f", r.fullPGC), fmt.Sprintf("%.3f", r.sampPGC),
		}
		for i, col := range []string{"full_ipc", "samp_ipc", "ipc_err%", "full_pgc_pki", "samp_pgc_pki"} {
			if got[i] != g[i] {
				t.Errorf("%s %s = %s, golden %s", r.name, col, got[i], g[i])
			}
		}
		v, err := strconv.ParseFloat(g[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		goldenIPCErr += v / float64(len(rows))
	}
	if got := meanErr(rows, fidelityRow.ipcErrPct); math.Abs(got-goldenIPCErr) > 0.001 {
		t.Errorf("sample.ipc_err_pct = %.4f, the golden rows' mean is %.4f", got, goldenIPCErr)
	}
}
