package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// marshalledEntry is the entry layout as a struct: json.Marshal of it is
// the byte form Put must write.
type marshalledEntry struct {
	Key      Key          `json:"key"`
	Schema   int          `json:"schema"`
	Checksum string       `json:"checksum"`
	Runs     []*stats.Run `json:"runs"`
}

// storeRuns is a two-core result whose fields carry characters JSON
// escapes, so the byte comparison covers string encoding too.
func storeRuns() []*stats.Run {
	a := &stats.Run{Workload: `spec.stream_s00 <"a"&b>`, Suite: "spec"}
	a.Core.Instructions, a.Core.Cycles = 5_000, 7_321
	a.L1D.PGCIssued = 17
	b := &stats.Run{Workload: "gap.graph_s00", Suite: "gap"}
	b.Core.Instructions, b.Core.Cycles = 5_000, 12_001
	return []*stats.Run{a, b}
}

// TestStorePutMatchesMarshal pins the on-disk bytes: Put builds the entry
// around the payload it marshals once, and the file must equal what
// json.Marshal gives the whole entry, so caches written before and after
// stay interchangeable.
func TestStorePutMatchesMarshal(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	k, _ := KeyOf(tinyConfig(t), workload(t, "spec.stream_s00"))
	runs := storeRuns()
	if err := s.Put(k, runs); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(s.path(k))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(runs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(marshalledEntry{Key: k, Schema: SchemaVersion, Checksum: string(appendChecksum(nil, payload)), Runs: runs})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Put wrote\n%s\nwant json.Marshal's\n%s", got, want)
	}
	back, ok := s.Get(k)
	if !ok {
		t.Fatal("Get missed what Put wrote")
	}
	if again, _ := json.Marshal(back); !bytes.Equal(again, payload) {
		t.Fatalf("Get returned\n%s\nwant\n%s", again, payload)
	}
}

// writeEntry writes payload under k with Put's head and a valid checksum,
// whatever bytes the payload holds.
func writeEntry(t *testing.T, s *Store, k Key, payload []byte) {
	t.Helper()
	b := appendChecksum(appendHead(nil, k), payload)
	b = append(b, runsField...)
	b = append(b, payload...)
	b = append(b, '}')
	if err := os.WriteFile(s.path(k), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestStorePathMatchesJoin pins path's concatenation against
// filepath.Join over the root shapes a caller can pass: relative, with a
// trailing separator, with dot segments, and absolute. Dir keeps returning
// the root as given.
func TestStorePathMatchesJoin(t *testing.T) {
	base := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(base); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	if err := os.MkdirAll("a", 0o755); err != nil {
		t.Fatal(err)
	}
	k := Key("0123456789abcdef")
	for _, dir := range []string{
		"cache",
		"cache/",
		"./a/../b",
		"./a/../b/",
		filepath.Join(base, "abs"),
		filepath.Join(base, "abs") + "/",
		"/",
	} {
		s, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if want := filepath.Join(dir, string(k[:2]), string(k)+".json"); s.path(k) != want {
			t.Errorf("OpenStore(%q).path = %q, want %q", dir, s.path(k), want)
		}
		if s.Dir() != dir {
			t.Errorf("OpenStore(%q).Dir() = %q", dir, s.Dir())
		}
	}
}

// TestStoreReformattedEntryMisses covers the strict reader: an entry that
// is still valid JSON (or nearly) with the right key, schema and checksum,
// but not byte for byte what Put writes, reads as a miss — it can only
// cost a re-simulation. Empty and nil runs stay misses even with a valid
// checksum.
func TestStoreReformattedEntryMisses(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	k, _ := KeyOf(tinyConfig(t), workload(t, "spec.stream_s00"))
	write := func(runs []*stats.Run, indent bool) {
		t.Helper()
		payload, err := json.Marshal(runs)
		if err != nil {
			t.Fatal(err)
		}
		e := marshalledEntry{Key: k, Schema: SchemaVersion, Checksum: string(appendChecksum(nil, payload)), Runs: runs}
		var b []byte
		if indent {
			b, err = json.MarshalIndent(e, "", "  ")
		} else {
			b, err = json.Marshal(e)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(s.path(k), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put(k, storeRuns()); err != nil { // makes the shard directory
		t.Fatal(err)
	}
	write(storeRuns(), false)
	if _, ok := s.Get(k); !ok {
		t.Fatal("a compact marshalled entry must hit")
	}
	write(storeRuns(), true)
	if _, ok := s.Get(k); ok {
		t.Fatal("re-formatted entry served")
	}
	write([]*stats.Run{}, false)
	if _, ok := s.Get(k); ok {
		t.Fatal("entry with no runs served")
	}
	write([]*stats.Run{storeRuns()[0], nil}, false)
	if _, ok := s.Get(k); ok {
		t.Fatal("entry with a nil run served")
	}

	// Payload edits, each checksummed afresh: every one is a miss.
	payload, err := json.Marshal(storeRuns())
	if err != nil {
		t.Fatal(err)
	}
	writeEntry(t, s, k, payload)
	if _, ok := s.Get(k); !ok {
		t.Fatal("Put's own payload must hit")
	}
	edits := []struct{ name, old, new string }{
		{"fields reordered", `{"Workload":"gap.graph_s00","Suite":"gap",`, `{"Suite":"gap","Workload":"gap.graph_s00",`},
		{"one added space", `,"Suite":"spec"`, `, "Suite":"spec"`},
		{"exponent", `"Instructions":5000,`, `"Instructions":5e3,`},
		{"leading zero", `"PGCIssued":17,`, `"PGCIssued":017,`},
		{"needless escape", `"Suite":"spec"`, `"Suite":"\u0073pec"`},
		{"uint64 overflow", `"PGCIssued":17,`, `"PGCIssued":18446744073709551616,`},
		{"negative", `"PGCIssued":17,`, `"PGCIssued":-17,`},
		{"fraction", `"PGCIssued":17,`, `"PGCIssued":17.0,`},
		{"quoted number", `"PGCIssued":17,`, `"PGCIssued":"17",`},
		{"string as null", `"Suite":"gap"`, `"Suite":null`},
		{"raw < json.Marshal escapes", `\u003c`, `<`},
		{"raw & in a plain string", `"Suite":"gap"`, `"Suite":"g&p"`},
		{"invalid UTF-8", `"Suite":"gap"`, "\"Suite\":\"g\xffp\""},
		{"raw U+2028", `"Suite":"gap"`, "\"Suite\":\"g\u2028p\""},
		{"raw control byte", `"Suite":"gap"`, "\"Suite\":\"g\tp\""},
		{"missing field", `"Suite":"gap",`, ``},
	}
	for _, e := range edits {
		if !bytes.Contains(payload, []byte(e.old)) {
			t.Fatalf("%s: payload lacks %s", e.name, e.old)
		}
		writeEntry(t, s, k, bytes.Replace(payload, []byte(e.old), []byte(e.new), 1))
		if _, ok := s.Get(k); ok {
			t.Errorf("%s: served", e.name)
		}
	}
	single, err := json.Marshal(storeRuns()[:1])
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string][]byte{
		"null run":          append(append([]byte{}, single[:len(single)-1]...), ",null]"...),
		"only null":         []byte("null"),
		"newline after ]":   append(append([]byte{}, payload...), '\n'),
		"array after ]":     append(append([]byte{}, payload...), "[]"...),
		"missing ]":         payload[:len(payload)-1],
		"run is not struct": []byte(`[1]`),
	} {
		writeEntry(t, s, k, p)
		if _, ok := s.Get(k); ok {
			t.Errorf("%s: served", name)
		}
	}
}

// escapedNames are workload names json.Marshal escapes or leaves raw in
// every way the decoder distinguishes.
var escapedNames = []string{
	`quote"in`, `back\slash`, `<html>&amp;`, "tab\tnew\nline\x01",
	"non-ASCII é 日本", "line\u2028sep\u2029", "\u007f del", "",
}

// TestStoreGetRoundTrip: a multi-core entry and workload names with every
// kind of JSON escape come back from Get exactly as Put stored them.
func TestStoreGetRoundTrip(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k, _ := KeyOf(tinyConfig(t), workload(t, "spec.stream_s00"))
	runs := append(storeRuns(), mixRuns(t)...)
	for i, name := range escapedNames {
		r := *runs[i%len(runs)]
		r.Workload, r.Suite = name, escapedNames[len(escapedNames)-1-i]
		runs = append(runs, &r)
	}
	if err := s.Put(k, runs); err != nil {
		t.Fatal(err)
	}
	back, ok := s.Get(k)
	if !ok {
		t.Fatal("Get missed what Put wrote")
	}
	if !reflect.DeepEqual(back, runs) {
		t.Fatalf("Get returned\n%+v\nwant\n%+v", back, runs)
	}
}

// TestStoreInvalidUTF8NameMisses: json.Marshal writes a name's invalid
// UTF-8 as \ufffd, so the entry cannot give the name back and Get misses
// instead of serving a renamed run.
func TestStoreInvalidUTF8NameMisses(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k, _ := KeyOf(tinyConfig(t), workload(t, "spec.stream_s00"))
	runs := storeRuns()
	runs[1].Workload = "gap.graph\xff"
	if err := s.Put(k, runs); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("served a run whose name the entry could not keep")
	}
}

// mixRuns simulates a small 2-core mix: the per-core runs of one
// multi-core cell.
func mixRuns(t testing.TB) []*stats.Run {
	t.Helper()
	per := tinyConfig(t)
	per.WarmupInstrs, per.SimInstrs = 1_000, 2_000
	per.Core.ReplayOnEnd = true
	mc := sim.DefaultMultiConfig()
	mc.Cores, mc.PerCore = 2, per
	ms, err := sim.NewMulti(mc)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := ms.RunMix(context.Background(), trace.Mixes(1, 2)[0])
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

// TestRunPlanCoversStats: the decoder's field plan builds for stats.Run,
// so a stats field of a kind it cannot decode fails here, not as a cache
// that always misses. Each kind the plan does not support is refused.
func TestRunPlanCoversStats(t *testing.T) {
	if runPlanErr != nil {
		t.Fatal(runPlanErr)
	}
	type inner struct{ A uint64 }
	for _, ok := range []any{
		struct{}{},
		struct {
			A uint64
			B string
			C inner
			D struct{}
		}{},
	} {
		if _, err := newStructPlan(reflect.TypeOf(ok)); err != nil {
			t.Errorf("%T: %v", ok, err)
		}
	}
	for _, bad := range []any{
		struct{ A int }{},
		struct{ A uint32 }{},
		struct{ A float64 }{},
		struct{ A bool }{},
		struct{ A *uint64 }{},
		struct{ A []uint64 }{},
		struct{ A map[string]uint64 }{},
		struct{ A [2]uint64 }{},
		struct{ A any }{},
		struct{ a uint64 }{},
		struct {
			A uint64 `json:"a"`
		}{},
		struct{ inner }{},
		struct{ A struct{ B int } }{},
		struct{ A time.Time }{},
		struct{ A json.Number }{},
		struct{ A Key }{},
	} {
		if _, err := newStructPlan(reflect.TypeOf(bad)); err == nil {
			t.Errorf("%T: plan built for an unsupported field", bad)
		}
	}
}

// TestStoreGetAllocBudget bounds the heap allocations of one cache hit on
// a real single-core entry: the file read and its path (7), the slice, the
// run and its two strings (4). It measures 11; decoding with json.Unmarshal
// made 26.
func TestStoreGetAllocBudget(t *testing.T) {
	s, k := storedRun(t)
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := s.Get(k); !ok {
			t.Fatal("hit expected")
		}
	})
	if allocs > 11 {
		t.Fatalf("Get allocates %.0f times per hit, budget 11", allocs)
	}
}

// storedRun stores a real single-core result and returns its store and key.
func storedRun(t testing.TB) (*Store, Key) {
	t.Helper()
	cfg, w := tinyConfig(t), workload(t, "spec.stream_s00")
	run, err := sim.RunWorkload(context.Background(), cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	k, err := KeyOf(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k, []*stats.Run{run}); err != nil {
		t.Fatal(err)
	}
	return s, k
}
