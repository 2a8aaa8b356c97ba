package sim

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/trace"
)

// fuzzConfig is a compact machine for fuzzing: small caches and memory keep
// each differential run cheap, and a tight poll grain checks often on short
// streams.
func fuzzConfig() Config {
	cfg := DefaultConfig()
	cfg.L1I = cache.Config{Name: "l1i", Sets: 16, Ways: 4, Latency: 4, MSHRs: 8}
	cfg.L1D = cache.Config{Name: "l1d", Sets: 16, Ways: 8, Latency: 5, MSHRs: 16}
	cfg.L2C = cache.Config{Name: "l2c", Sets: 128, Ways: 8, Latency: 10, MSHRs: 24}
	cfg.LLC = cache.Config{Name: "llc", Sets: 256, Ways: 8, Latency: 20, MSHRs: 48}
	cfg.VMem.MemBytes = 1 << 30
	cfg.Watchdog = WatchdogConfig{PollEvery: 512}
	return cfg
}

// fuzzPolicies and fuzzPrefetchers span the decision space the fuzzer
// exercises.
var fuzzPolicies = []PolicyKind{PolicyDiscard, PolicyPermit, PolicyDiscardPTW, PolicyDripper, PolicyPPF, PolicyDripperSF}
var fuzzPrefetchers = []string{"berti", "ipcp", "bop"}

// reportFuzzViolation shrinks a violating stream, writes the minimal repro,
// and fails the fuzz run with its location.
func reportFuzzViolation(t *testing.T, cfg Config, label string, instrs []trace.Instr, ce *CheckError) {
	t.Helper()
	minimal := ShrinkTrace(instrs, func(cand []trace.Instr) bool {
		return CheckFailure(DiffTrace(cfg, label, cand)) != nil
	})
	path, werr := WriteRepro("testdata/repro", label, minimal)
	if werr != nil {
		t.Fatalf("sim-vs-oracle mismatch (%v) and repro emission failed: %v", ce, werr)
	}
	t.Fatalf("sim-vs-oracle mismatch: %v (minimal repro: %d instructions at %s)", ce, len(minimal), path)
}

// FuzzSimVsOracle drives randomly parameterised generator streams through
// sim-vs-oracle across every workload family, page-cross policy, and L1D
// prefetcher. Any invariant violation is shrunk to a minimal repro under
// testdata/repro/ before failing.
func FuzzSimVsOracle(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint8(0), uint64(1), uint16(800)) // stream × dripper × berti
	f.Add(uint8(1), uint8(0), uint8(2), uint64(2), uint16(600)) // pagehop × discard × bop
	f.Add(uint8(3), uint8(1), uint8(1), uint64(3), uint16(700)) // graph × permit × ipcp
	f.Add(uint8(5), uint8(2), uint8(4), uint64(4), uint16(500)) // phased × discard-ptw × ipcp
	f.Fuzz(func(t *testing.T, family, policy, pf uint8, seed uint64, n uint16) {
		fams := trace.Families()
		fam := fams[int(family)%len(fams)]
		gcfg, err := trace.FamilyConfig(fam, seed)
		if err != nil {
			t.Skip()
		}
		reader, err := trace.NewGen(gcfg)
		if err != nil {
			t.Skip()
		}
		count := 300 + int(n)%1700
		instrs := trace.Record(reader, count)

		cfg := fuzzConfig()
		cfg.Policy = fuzzPolicies[int(policy)%len(fuzzPolicies)]
		cfg.L1DPrefetcher = fuzzPrefetchers[int(pf)%len(fuzzPrefetchers)]
		label := fmt.Sprintf("fuzz-%s-%s-%s-%d", fam, cfg.Policy, cfg.L1DPrefetcher, seed)

		runErr := DiffTrace(cfg, label, instrs)
		if runErr == nil {
			return
		}
		if ce := CheckFailure(runErr); ce != nil {
			reportFuzzViolation(t, cfg, label, instrs, ce)
		}
		t.Fatalf("differential run failed outside the checker: %v", runErr)
	})
}

// FuzzTraceStream decodes arbitrary bytes into an instruction stream and
// runs it through a checked system: the oracle must hold for any input the
// trace format can express, not just generator output.
func FuzzTraceStream(f *testing.F) {
	f.Add([]byte("seed-corpus-entry-with-some-addresses-0123456789abcdef"))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17})
	f.Fuzz(func(t *testing.T, raw []byte) {
		const rec = 9 // 4 PC bytes, 1 kind byte, 4 address bytes
		if len(raw) < rec {
			t.Skip()
		}
		if len(raw) > rec*2000 {
			raw = raw[:rec*2000]
		}
		instrs := make([]trace.Instr, 0, len(raw)/rec)
		le32 := func(b []byte) uint64 {
			return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24
		}
		for i := 0; i+rec <= len(raw); i += rec {
			b := raw[i : i+rec]
			instrs = append(instrs, trace.Instr{
				PC:    le32(b[:4]) << 2,
				Kind:  trace.Kind(b[4] & 3),
				Addr:  le32(b[5:]) << 4, // spans up to 64GB of VA space
				Taken: b[4]&0x80 != 0,
			})
		}

		cfg := fuzzConfig()
		cfg.Policy = PolicyDripper
		runErr := DiffTrace(cfg, "fuzz-stream", instrs)
		if runErr == nil {
			return
		}
		if ce := CheckFailure(runErr); ce != nil {
			reportFuzzViolation(t, cfg, "fuzz-stream", instrs, ce)
		}
		t.Fatalf("differential run failed outside the checker: %v", runErr)
	})
}
