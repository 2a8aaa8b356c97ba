package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

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

// An entry is one JSON object, written without spaces in this field order:
//
//	{"key":<k>,"schema":<SchemaVersion>,"checksum":"<hex sha256>","runs":<payload>}
//
// Runs holds one *stats.Run per core (length 1 for single-core cells); the
// checksum covers the payload bytes, so corruption is detected
// independently of the filename. These are exactly the bytes json.Marshal
// gives the matching struct, but Put builds them around the payload it
// marshalled once and Get verifies and decodes only the payload, so an
// entry re-formatted into another valid layout reads as a miss.

// checksumLen is the length of a hex SHA-256 checksum.
const checksumLen = 2 * sha256.Size

// runsField separates the checksum from the payload.
const runsField = `","runs":`

func (s *Store) path(k Key) string {
	return filepath.Join(s.dir, string(k[:2]), string(k)+".json")
}

// head is the entry's fixed opening up to the checksum's first digit:
// {"key":<k>,"schema":<SchemaVersion>,"checksum":"
func head(k Key) []byte {
	key, _ := json.Marshal(k) // a string always marshals
	b := append([]byte(`{"key":`), key...)
	b = append(b, `,"schema":`...)
	b = strconv.AppendInt(b, SchemaVersion, 10)
	return append(b, `,"checksum":"`...)
}

// Get returns the cached runs for k, or ok=false on any miss — absent, not
// laid out as Put writes it, wrong key, wrong schema version, checksum
// mismatch, or a payload that does not decode to non-nil runs.
func (s *Store) Get(k Key) ([]*stats.Run, bool) {
	if len(k) < 2 {
		return nil, false
	}
	b, err := os.ReadFile(s.path(k))
	if err != nil {
		return nil, false
	}
	h := head(k)
	if !bytes.HasPrefix(b, h) {
		return nil, false
	}
	b = b[len(h):]
	if len(b) < checksumLen+len(runsField)+1 || b[len(b)-1] != '}' ||
		string(b[checksumLen:checksumLen+len(runsField)]) != runsField {
		return nil, false
	}
	sum, payload := b[:checksumLen], b[checksumLen+len(runsField):len(b)-1]
	if checksum(payload) != string(sum) {
		return nil, false
	}
	var runs []*stats.Run
	if err := json.Unmarshal(payload, &runs); err != nil || len(runs) == 0 {
		return nil, false
	}
	for _, r := range runs {
		if r == nil {
			return nil, false
		}
	}
	return runs, true
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
	b := append(head(k), checksum(payload)...)
	b = append(b, runsField...)
	b = append(b, payload...)
	b = append(b, '}')
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
