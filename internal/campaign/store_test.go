package campaign

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/stats"
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
	want, err := json.Marshal(marshalledEntry{Key: k, Schema: SchemaVersion, Checksum: checksum(payload), Runs: runs})
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

// TestStoreReformattedEntryMisses covers the strict reader: an entry that
// is still valid JSON with the right key, schema and checksum, but not laid
// out as Put writes it, reads as a miss — it can only cost a
// re-simulation. Empty and nil runs stay misses even with a valid checksum.
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
		e := marshalledEntry{Key: k, Schema: SchemaVersion, Checksum: checksum(payload), Runs: runs}
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
}
