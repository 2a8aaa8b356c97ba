package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/stats"
)

// Store is the content-addressed on-disk result cache. Entries live at
// dir/<first two hex digits>/<key>.json (the two-digit shard keeps any one
// directory small on full-evaluation campaigns of tens of thousands of
// cells). Every entry embeds its own key, schema version and a checksum of
// its payload; anything that fails those self-checks — torn write, manual
// edit, schema drift, a file renamed under a different key — reads as a
// miss and the cell is simulated again. The cache can only ever cost a
// re-simulation, never a wrong result.
type Store struct {
	dir string
}

// OpenStore opens (creating if needed) a result cache rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: opening cache: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the cache root.
func (s *Store) Dir() string { return s.dir }

// entry is the on-disk format. Runs holds one *stats.Run per core (length
// 1 for single-core cells); Checksum covers the canonical JSON of Runs so
// payload corruption is detected independently of the filename.
type entry struct {
	Key      Key          `json:"key"`
	Schema   int          `json:"schema"`
	Checksum string       `json:"checksum"`
	Runs     []*stats.Run `json:"runs"`
}

func (s *Store) path(k Key) string {
	return filepath.Join(s.dir, string(k[:2]), string(k)+".json")
}

// Get returns the cached runs for k, or ok=false on any miss — absent,
// unparsable, wrong key, wrong schema version, or checksum mismatch.
func (s *Store) Get(k Key) ([]*stats.Run, bool) {
	if len(k) < 2 {
		return nil, false
	}
	b, err := os.ReadFile(s.path(k))
	if err != nil {
		return nil, false
	}
	var e entry
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, false
	}
	if e.Key != k || e.Schema != SchemaVersion || len(e.Runs) == 0 {
		return nil, false
	}
	payload, err := json.Marshal(e.Runs)
	if err != nil {
		return nil, false
	}
	if checksum(payload) != e.Checksum {
		return nil, false
	}
	for _, r := range e.Runs {
		if r == nil {
			return nil, false
		}
	}
	return e.Runs, true
}

// Put stores runs under k, atomically and durably: the entry is written to
// a temp file in the same directory, synced, and renamed into place, so a
// crashed writer leaves either the old entry or none — never a torn one
// (and a torn rename target would fail Get's checksum anyway) — and an
// entry that Put returned for survives a crash. That makes the store the
// campaign checkpoint.
func (s *Store) Put(k Key, runs []*stats.Run) error {
	if len(k) < 2 || len(runs) == 0 {
		return fmt.Errorf("campaign: refusing to cache empty result")
	}
	payload, err := json.Marshal(runs)
	if err != nil {
		return fmt.Errorf("campaign: caching result: %w", err)
	}
	e := entry{Key: k, Schema: SchemaVersion, Checksum: checksum(payload), Runs: runs}
	b, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("campaign: caching result: %w", err)
	}
	dir := filepath.Dir(s.path(k))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("campaign: caching result: %w", err)
	}
	tmp, err := os.CreateTemp(dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("campaign: caching result: %w", err)
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: caching result: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: caching result: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: caching result: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path(k)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: caching result: %w", err)
	}
	return nil
}

func checksum(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
