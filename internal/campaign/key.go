// Package campaign expresses the paper's evaluation — figure matrices,
// ablation sweeps, multi-core mixes — as an ordered list of simulation cells executed
// on an in-process worker pool, with every cell's result memoized
// in a content-addressed on-disk cache that doubles as the checkpoint. A
// warm-cache re-run of the whole evaluation performs zero simulations; an
// interrupted campaign re-run over the same cache simulates only the cells
// that had not completed; a config change invalidates exactly the affected
// cells (their content hash moves, everything else still hits).
//
// Keys and entries are json.Marshal's bytes, written and read without
// encoding/json. One field plan per type, built once by reflection
// (typePlan), writes exactly what json.Marshal would: KeyOf hashes the
// pre-image it writes for the cell, and Store.Put stores the runs it
// writes. A keyed or stored type the plan cannot write exactly — one that
// marshals itself, or a map, interface or float32 — fails the plan, and
// then every cell is uncacheable rather than keyed differently.
//
// The cache reads only what it writes. Store.Get decodes Put's bytes in
// one pass through the same plan over stats.Run, and reads anything else —
// including a valid but re-formatted entry — as a miss. Decoding supports
// nested structs, uint64 and string fields only; giving stats.Run a field
// of another kind needs the decoder extended, and, as any stats change
// does, a SchemaVersion bump.
package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"unsafe"

	"repro/internal/sim"
	"repro/internal/trace"
)

// SchemaVersion is folded into every cache key. Bump it whenever the
// meaning of the simulator's statistics changes (a counter is added,
// renamed, or measured differently) or the shape of the keyed sim.Config
// changes (a field is added, removed or reinterpreted): every previously
// cached result then misses and is regenerated, instead of silently mixing
// incomparable runs. Version 2 dropped Config.L1INextLine.
const SchemaVersion = 2

// ErrUncacheable marks a configuration whose simulation outcome is not a
// pure function of its serialised form. The only such configuration today
// is fault injection: sim.Config.FaultInject carries live hook state that
// does not serialise, so two runs with "the same" injector are not
// interchangeable. Uncacheable cells are always simulated and never stored.
var ErrUncacheable = errors.New("campaign: configuration is uncacheable (fault injection carries non-serialisable state)")

// Key is the content address of one simulation cell: a hex SHA-256 over
// the canonical JSON of (SchemaVersion, full sim.Config, and each
// workload's identity and generator parameters). Two cells share a key
// exactly when they are the same experiment.
type Key string

// workloadKey is the result-determining identity of one workload. Weight,
// Seen and MemoryIntensive are selection metadata — they decide which
// matrices a workload appears in, not what its simulation produces — so
// they are deliberately excluded: re-tagging a workload must not invalidate
// its cached runs.
type workloadKey struct {
	Name  string          `json:"name"`
	Suite string          `json:"suite"`
	Gen   trace.GenConfig `json:"gen"`
	// Source carries the content hash of an external trace file backing
	// the workload (a decoded ChampSim trace). The hash — not the path —
	// is the identity, so the same trace hits the same cells from any
	// location and a changed file invalidates exactly its own cells. The
	// field is omitted for generator workloads, which keeps every
	// pre-existing cache key byte-stable.
	Source *trace.Source `json:"source,omitempty"`
}

// cellWorkloadKey builds the identity of one workload, rejecting external
// sources whose content hash is missing: a cell the cache cannot address
// by content must not be cached at all.
func cellWorkloadKey(w trace.Workload) (workloadKey, error) {
	if w.Source != nil && w.Source.SHA256 == "" {
		return workloadKey{}, fmt.Errorf("campaign: workload %s: external trace source has no content hash", w.Name)
	}
	return workloadKey{Name: w.Name, Suite: w.Suite, Gen: w.Config, Source: w.Source}, nil
}

// keyPayload's pre-image is the bytes json.Marshal writes for it:
// encoding/json orders struct fields by declaration, so those bytes are a
// stable serialisation, and keys computed by marshalling stay valid.
// keyPlan writes the same bytes without encoding/json
// (TestKeyPreimageMatchesMarshal, FuzzKeyPreimage).
type keyPayload struct {
	Schema    int              `json:"schema"`
	Config    *sim.Config      `json:"config,omitempty"`
	Multi     *sim.MultiConfig `json:"multi,omitempty"`
	Workloads []workloadKey    `json:"workloads"`
}

// KeyOf returns the cache key for a single-core cell: cfg run over w.
// It returns ErrUncacheable when cfg carries a fault injector.
func KeyOf(cfg sim.Config, w trace.Workload) (Key, error) {
	if cfg.FaultInject != nil {
		return "", ErrUncacheable
	}
	wk, err := cellWorkloadKey(w)
	if err != nil {
		return "", err
	}
	wks := [1]workloadKey{wk}
	return hashPayload(&keyPayload{Schema: SchemaVersion, Config: &cfg, Workloads: wks[:]})
}

// MixKeyOf returns the cache key for a multi-core cell: mc run over mix
// (workload i on core i; order matters).
func MixKeyOf(mc sim.MultiConfig, mix []trace.Workload) (Key, error) {
	if mc.PerCore.FaultInject != nil {
		return "", ErrUncacheable
	}
	wks := make([]workloadKey, len(mix))
	for i, w := range mix {
		wk, err := cellWorkloadKey(w)
		if err != nil {
			return "", err
		}
		wks[i] = wk
	}
	return hashPayload(&keyPayload{Schema: SchemaVersion, Multi: &mc, Workloads: wks})
}

// keyPlan writes keyPayload's pre-image; a keyed type the plan cannot
// write exactly as json.Marshal does leaves keyPlanErr set, and every cell
// uncacheable (TestKeyPlanCoversPayload fails on it first).
var keyPlan, keyPlanErr = newTypePlan(reflect.TypeOf(keyPayload{}))

// appendPreimage appends json.Marshal's bytes for p.
func appendPreimage(b []byte, p *keyPayload) ([]byte, error) {
	if keyPlanErr != nil {
		return nil, keyPlanErr
	}
	return keyPlan.encode(b, unsafe.Pointer(p))
}

// hashPayload hashes p's pre-image, written into a stack buffer that
// holds any single-core registry cell's (2.4 KB at most).
func hashPayload(p *keyPayload) (Key, error) {
	var buf [4096]byte
	b, err := appendPreimage(buf[:0], p)
	if err != nil {
		return "", fmt.Errorf("campaign: hashing cell: %w", err)
	}
	sum := sha256.Sum256(b)
	var hex64 [2 * sha256.Size]byte
	return Key(hex.AppendEncode(hex64[:0], sum[:])), nil
}
