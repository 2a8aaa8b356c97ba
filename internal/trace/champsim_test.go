package trace

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func fixture(name string) string {
	return filepath.Join("testdata", "champsim", name)
}

// readAll drains a reader through Next.
func readAll(r Reader) []Instr {
	var out []Instr
	for {
		in, ok := r.Next()
		if !ok {
			return out
		}
		out = append(out, in)
	}
}

func TestChampSimExpansion(t *testing.T) {
	ip := uint64(0x400000)
	recs := []ChampSimRecord{
		{IP: ip},                                   // plain op
		{IP: ip + 4, SrcMem: [4]uint64{0x1000}},    // load
		{IP: ip + 8, DstMem: [2]uint64{0x2000}},    // store
		{IP: ip + 12, IsBranch: 1, BranchTaken: 1}, // taken: target = next IP
		{IP: ip + 64, IsBranch: 1, BranchTaken: 0}, // not taken: target = IP+4
		{IP: ip + 68, SrcMem: [4]uint64{0x3000, 0x3040}, // multi-operand
			DstMem: [2]uint64{0x4000}},
		{IP: ip + 72, IsBranch: 1, BranchTaken: 1}, // last record: fallback IP+4
	}
	var buf bytes.Buffer
	if err := WriteChampSim(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeChampSim(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []Instr{
		{PC: ip, Kind: Op},
		{PC: ip + 4, Kind: Load, Addr: 0x1000},
		{PC: ip + 8, Kind: Store, Addr: 0x2000},
		{PC: ip + 12, Kind: Branch, Addr: ip + 64, Taken: true},
		{PC: ip + 64, Kind: Branch, Addr: ip + 68, Taken: false},
		{PC: ip + 68, Kind: Load, Addr: 0x3000},
		{PC: ip + 68, Kind: Load, Addr: 0x3040},
		{PC: ip + 68, Kind: Store, Addr: 0x4000},
		{PC: ip + 72, Kind: Branch, Addr: ip + 76, Taken: true},
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d instrs, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("instr %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestChampSimFixtureDecodes(t *testing.T) {
	raw, err := os.ReadFile(fixture("valid_small.champsim"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw)%ChampSimRecordSize != 0 {
		t.Fatalf("fixture is %d bytes, not a whole number of %d-byte records",
			len(raw), ChampSimRecordSize)
	}
	instrs, err := DecodeChampSim(bytes.NewReader(raw), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(instrs) < len(raw)/ChampSimRecordSize {
		t.Fatalf("expansion shrank: %d instrs from %d records",
			len(instrs), len(raw)/ChampSimRecordSize)
	}
	// The taken branch mid-trace must target the following record's IP.
	for i, in := range instrs {
		if in.Kind == Branch && in.Taken && i+1 < len(instrs) {
			if in.Addr == 0 {
				t.Fatalf("instr %d: taken branch with zero target", i)
			}
		}
	}
}

func TestChampSimTruncatedFixtureTypedError(t *testing.T) {
	// The committed fixture ends mid-record: decoding must return the typed
	// *ChampSimError promptly (not hang, not succeed, not panic), with the
	// offset of the torn record.
	raw, err := os.ReadFile(fixture("truncated.champsim"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = DecodeChampSim(bytes.NewReader(raw), 0)
	var cse *ChampSimError
	if !errors.As(err, &cse) {
		t.Fatalf("error is %T (%v), want *ChampSimError", err, err)
	}
	if cse.Offset != int64(len(raw)) {
		t.Errorf("error offset %d, want %d (end of torn record)", cse.Offset, len(raw))
	}
	if !strings.Contains(cse.Error(), "truncated record") {
		t.Errorf("error message %q lacks the truncation diagnosis", cse.Error())
	}

	// The streaming reader surfaces the same failure through Err after the
	// stream ends.
	r, err := OpenChampSim(fixture("truncated.champsim"))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	instrs := readAll(r)
	if r.Err() == nil {
		t.Fatal("streaming reader swallowed the truncation")
	}
	if !errors.As(r.Err(), &cse) {
		t.Fatalf("streaming error is %T, want *ChampSimError", r.Err())
	}
	// The two whole records before the tear still decode.
	if len(instrs) == 0 {
		t.Fatal("whole records before the tear were dropped")
	}
}

func TestChampSimResetReplaysIdentically(t *testing.T) {
	r, err := OpenChampSim(fixture("valid_small.champsim"))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	first := readAll(r)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	r.Reset()
	second := readAll(r)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if len(first) == 0 || len(first) != len(second) {
		t.Fatalf("replay lengths differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("instr %d differs across Reset: %+v vs %+v", i, first[i], second[i])
		}
	}
}

// TestChampSimResetKeepsError pins that a decode error outlives Reset: the
// replay of a torn trace yields nothing and Err keeps the typed error.
func TestChampSimResetKeepsError(t *testing.T) {
	r, err := OpenChampSim(fixture("truncated.champsim"))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if len(readAll(r)) == 0 || r.Err() == nil {
		t.Fatal("torn fixture did not decode its prefix and fail")
	}
	r.Reset()
	if n := len(readAll(r)); n != 0 {
		t.Fatalf("replay after a decode error produced %d instructions", n)
	}
	var cse *ChampSimError
	if !errors.As(r.Err(), &cse) {
		t.Fatalf("error after Reset is %v, want the *ChampSimError", r.Err())
	}
}

func TestChampSimNextBatchMatchesNext(t *testing.T) {
	a, err := OpenChampSim(fixture("valid_small.champsim"))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := OpenChampSim(fixture("valid_small.champsim"))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	viaNext := readAll(a)
	var viaBatch []Instr
	for {
		batch := b.NextBatch(3)
		if len(batch) == 0 {
			break
		}
		viaBatch = append(viaBatch, batch...)
	}
	if len(viaNext) != len(viaBatch) {
		t.Fatalf("Next saw %d instrs, NextBatch %d", len(viaNext), len(viaBatch))
	}
	for i := range viaNext {
		if viaNext[i] != viaBatch[i] {
			t.Fatalf("instr %d differs: %+v vs %+v", i, viaNext[i], viaBatch[i])
		}
	}
}

func TestChampSimGzip(t *testing.T) {
	raw, err := os.ReadFile(fixture("valid_small.champsim"))
	if err != nil {
		t.Fatal(err)
	}
	gzPath := filepath.Join(t.TempDir(), "small.champsim.gz")
	f, err := os.Create(gzPath)
	if err != nil {
		t.Fatal(err)
	}
	zw := gzip.NewWriter(f)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	plain, err := DecodeChampSim(bytes.NewReader(raw), 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenChampSim(gzPath)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	unzipped := readAll(r)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if len(plain) != len(unzipped) {
		t.Fatalf("gzip path decoded %d instrs, raw %d", len(unzipped), len(plain))
	}
	for i := range plain {
		if plain[i] != unzipped[i] {
			t.Fatalf("instr %d differs through gzip: %+v vs %+v", i, plain[i], unzipped[i])
		}
	}
}

func TestChampSimXZRejected(t *testing.T) {
	_, err := OpenChampSim("some/trace.champsimtrace.xz")
	if err == nil || !strings.Contains(err.Error(), "xz") {
		t.Fatalf("xz framing must be rejected with guidance, got: %v", err)
	}
	// LoadChampSim rejects it before touching the filesystem state beyond
	// the open, too.
	xz := filepath.Join(t.TempDir(), "t.champsimtrace.xz")
	if err := os.WriteFile(xz, []byte{0xfd, '7', 'z', 'X', 'Z', 0}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadChampSim(xz); err == nil || !strings.Contains(err.Error(), "xz") {
		t.Fatalf("LoadChampSim must reject xz, got: %v", err)
	}
}

func TestLoadChampSimWorkload(t *testing.T) {
	w, err := LoadChampSim(fixture("valid_small.champsim"))
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "champsim.valid_small" || w.Suite != "champsim" {
		t.Fatalf("identity: %+v", w)
	}
	if w.Source == nil || w.Source.Format != "champsim" || len(w.Source.SHA256) != 64 {
		t.Fatalf("source: %+v", w.Source)
	}
	r, err := w.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	if cs, ok := r.(*ChampSimReader); ok {
		defer cs.Close()
	}
	if got := readAll(r); len(got) == 0 {
		t.Fatal("workload reader produced no instructions")
	}

	// Same bytes elsewhere → same content hash; different bytes → different.
	copyPath := filepath.Join(t.TempDir(), "copy.champsim")
	raw, err := os.ReadFile(fixture("valid_small.champsim"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(copyPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, err := LoadChampSim(copyPath)
	if err != nil {
		t.Fatal(err)
	}
	if w2.Source.SHA256 != w.Source.SHA256 {
		t.Fatal("identical bytes hashed differently")
	}
	mutated := append([]byte(nil), raw...)
	mutated[0] ^= 0xFF
	mutPath := filepath.Join(t.TempDir(), "mut.champsim")
	if err := os.WriteFile(mutPath, mutated, 0o644); err != nil {
		t.Fatal(err)
	}
	w3, err := LoadChampSim(mutPath)
	if err != nil {
		t.Fatal(err)
	}
	if w3.Source.SHA256 == w.Source.SHA256 {
		t.Fatal("different bytes share a content hash")
	}
}

func TestLoadChampSimEmpty(t *testing.T) {
	empty := filepath.Join(t.TempDir(), "empty.champsim")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadChampSim(empty); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("empty trace must be rejected at load, got: %v", err)
	}
}

func TestChampSimStem(t *testing.T) {
	for in, want := range map[string]string{
		"600.perlbench_s-210B.champsimtrace.xz": "600.perlbench_s-210B",
		"/a/b/bc-0.trace.gz":                    "bc-0",
		"plain.champsim":                        "plain",
		"noext":                                 "noext",
	} {
		if got := champSimStem(in); got != want {
			t.Errorf("champSimStem(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestChampSimNextZeroAlloc pins the steady-state Next of a streaming
// reader at zero heap allocations: each record decodes through a buffer the
// reader owns, so nothing escapes per record.
func TestChampSimNextZeroAlloc(t *testing.T) {
	recs := make([]ChampSimRecord, 1000)
	for i := range recs {
		recs[i] = ChampSimRecord{IP: 0x400000 + 4*uint64(i), SrcMem: [4]uint64{0x1000 + 64*uint64(i)}}
	}
	var buf bytes.Buffer
	if err := WriteChampSim(&buf, recs); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	r := NewChampSimReader(func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(data)), nil })
	defer r.Close()
	for i := 0; i < 10; i++ { // open the source and size the expansion buffer
		if _, ok := r.Next(); !ok {
			t.Fatal("trace ended early")
		}
	}
	if n := testing.AllocsPerRun(500, func() {
		if _, ok := r.Next(); !ok {
			t.Fatal("trace ended early")
		}
	}); n != 0 {
		t.Fatalf("%v allocs per Next, want 0", n)
	}
}
