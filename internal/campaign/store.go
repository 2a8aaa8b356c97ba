package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"unsafe"

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
	// root is dir cleaned once and ending in a separator, so an entry's
	// path is plain concatenation (path).
	root string
}

// OpenStore opens (creating if needed) a result cache rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: opening cache: %w", err)
	}
	root := filepath.Clean(dir)
	if !os.IsPathSeparator(root[len(root)-1]) {
		root += string(filepath.Separator)
	}
	return &Store{dir: dir, root: root}, nil
}

// Dir returns the cache root.
func (s *Store) Dir() string { return s.dir }

// An entry is one JSON object, written without spaces in this field order:
//
//	{"key":"<k>","schema":<SchemaVersion>,"checksum":"<hex sha256>","runs":<payload>}
//
// The payload is json.Marshal of the runs, one *stats.Run per core (length
// 1 for single-core cells); the checksum covers the payload bytes, so
// corruption is detected independently of the filename. These are exactly
// the bytes json.Marshal gives the matching struct, but Put writes them
// itself, the payload through the runs' field plan (appendRuns), and Get
// compares the head byte for byte, verifies the checksum and decodes the
// payload in one pass that accepts only json.Marshal's own bytes
// (decodeRuns), so an entry re-formatted into another valid layout reads as
// a miss.

// checksumLen is the length of a hex SHA-256 checksum.
const checksumLen = 2 * sha256.Size

// runsField separates the checksum from the payload.
const runsField = `","runs":`

// path is filepath.Join(dir, k[:2], k+".json") for a valid key, whose hex
// digits leave nothing for Join's Clean to change below the root.
func (s *Store) path(k Key) string {
	return s.root + string(k[:2]) + string(filepath.Separator) + string(k) + ".json"
}

// validKey reports whether k can name an entry: at least two characters,
// all lowercase hex digits, as KeyOf writes them. Such a key is its own
// JSON string and a safe file name.
func validKey(k Key) bool {
	if len(k) < 2 {
		return false
	}
	for i := 0; i < len(k); i++ {
		if c := k[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// headTail follows the key in every entry's head.
var headTail = `","schema":` + strconv.Itoa(SchemaVersion) + `,"checksum":"`

// appendHead appends the entry's fixed opening up to the checksum's first
// digit, {"key":"<k>","schema":<SchemaVersion>,"checksum":", for a valid k.
func appendHead(b []byte, k Key) []byte {
	b = append(b, `{"key":"`...)
	b = append(b, k...)
	return append(b, headTail...)
}

// appendChecksum appends the lowercase hex SHA-256 of payload.
func appendChecksum(b, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	return hex.AppendEncode(b, sum[:])
}

// appendRuns appends json.Marshal's bytes for runs: the payload Put
// stores.
func appendRuns(b []byte, runs []*stats.Run) ([]byte, error) {
	if runPlanErr != nil {
		return nil, runPlanErr
	}
	b = append(b, '[')
	for i, r := range runs {
		if i > 0 {
			b = append(b, ',')
		}
		if r == nil {
			b = append(b, "null"...)
			continue
		}
		b, _ = runPlan.encode(b, unsafe.Pointer(r)) // no floats: cannot fail
	}
	return append(b, ']'), nil
}

// Get returns the cached runs for k, or ok=false on any miss — absent, not
// laid out byte for byte as Put writes it, wrong key, wrong schema version,
// checksum mismatch, or a payload that is not json.Marshal's encoding of
// non-empty, non-nil runs (see decodeRuns).
func (s *Store) Get(k Key) ([]*stats.Run, bool) {
	if !validKey(k) {
		return nil, false
	}
	b, err := os.ReadFile(s.path(k))
	if err != nil {
		return nil, false
	}
	var buf [128]byte
	h := appendHead(buf[:0], k)
	if !bytes.HasPrefix(b, h) {
		return nil, false
	}
	b = b[len(h):]
	if len(b) < checksumLen+len(runsField)+1 || b[len(b)-1] != '}' ||
		string(b[checksumLen:checksumLen+len(runsField)]) != runsField {
		return nil, false
	}
	sum, payload := b[:checksumLen], b[checksumLen+len(runsField):len(b)-1]
	if !bytes.Equal(appendChecksum(buf[:0], payload), sum) {
		return nil, false
	}
	return decodeRuns(payload)
}

// Put stores runs under k, atomically and durably: the entry is written to
// a temp file in the same directory, synced, and renamed into place, so a
// crashed writer leaves either the old entry or none — never a torn one
// (and a torn rename target would fail Get's checksum anyway) — and an
// entry that Put returned for survives a crash. That makes the store the
// campaign checkpoint.
func (s *Store) Put(k Key, runs []*stats.Run) error {
	if !validKey(k) {
		return fmt.Errorf("campaign: refusing to cache under malformed key %q", k)
	}
	if len(runs) == 0 {
		return fmt.Errorf("campaign: refusing to cache empty result")
	}
	payload, err := appendRuns(nil, runs)
	if err != nil {
		return fmt.Errorf("campaign: caching result: %w", err)
	}
	b := appendChecksum(appendHead(nil, k), payload)
	b = append(b, runsField...)
	b = append(b, payload...)
	b = append(b, '}')
	dir := s.root + string(k[:2])
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
