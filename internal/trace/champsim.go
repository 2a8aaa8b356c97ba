package trace

import (
	"bufio"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// ChampSim input-trace decoding. ChampSim's x86 input format is a raw
// stream of fixed 64-byte records (struct trace_instr_format_t): the
// instruction pointer, branch flags, register ids, and up to
// NUM_INSTR_DESTINATIONS store addresses and NUM_INSTR_SOURCES load
// addresses. Each record expands to one or more Instr values of the
// package's stream model:
//
//   - every non-zero source-memory slot becomes a Load at the record's IP,
//   - every non-zero destination-memory slot becomes a Store,
//   - a branch record contributes a Branch whose target is the next
//     record's IP when taken (ChampSim reconstructs targets the same way)
//     and the fall-through IP+4 otherwise,
//   - a record with neither memory nor branch becomes a single Op.
//
// Multi-operand records therefore inflate the instruction count slightly
// relative to ChampSim's one-record-one-instruction accounting; the
// expansion is deterministic, so content-addressed caching and replay stay
// byte-stable. Compression framing: .gz is decompressed in-process
// (stdlib); .xz must be decompressed externally — the decoder reports a
// diagnosable error instead of guessing.

// ChampSim record geometry (x86 traces; the SPARC/cloudsuite variant with
// wider register files is not supported).
const (
	champSimDsts       = 2  // NUM_INSTR_DESTINATIONS
	champSimSrcs       = 4  // NUM_INSTR_SOURCES
	ChampSimRecordSize = 64 // bytes: 8 + 1 + 1 + 2 + 4 + 2*8 + 4*8
)

// ChampSimRecord is one raw trace_instr_format_t record.
type ChampSimRecord struct {
	IP          uint64
	IsBranch    uint8
	BranchTaken uint8
	DstRegs     [champSimDsts]uint8
	SrcRegs     [champSimSrcs]uint8
	DstMem      [champSimDsts]uint64
	SrcMem      [champSimSrcs]uint64
}

// ChampSimError is a typed decode failure: a truncated or structurally
// implausible record, with the byte offset where decoding stopped. It is
// returned (never panicked) so corrupt traces fail diagnosably and fast —
// not by hanging a simulation.
type ChampSimError struct {
	Offset int64
	Reason string
}

func (e *ChampSimError) Error() string {
	return fmt.Sprintf("trace: champsim decode at byte %d: %s", e.Offset, e.Reason)
}

// decodeChampSimRecord unpacks one little-endian 64-byte record.
func decodeChampSimRecord(buf *[ChampSimRecordSize]byte) ChampSimRecord {
	var r ChampSimRecord
	r.IP = binary.LittleEndian.Uint64(buf[0:8])
	r.IsBranch = buf[8]
	r.BranchTaken = buf[9]
	copy(r.DstRegs[:], buf[10:12])
	copy(r.SrcRegs[:], buf[12:16])
	for i := 0; i < champSimDsts; i++ {
		r.DstMem[i] = binary.LittleEndian.Uint64(buf[16+8*i : 24+8*i])
	}
	for i := 0; i < champSimSrcs; i++ {
		r.SrcMem[i] = binary.LittleEndian.Uint64(buf[32+8*i : 40+8*i])
	}
	return r
}

// WriteChampSim encodes records in ChampSim's input format (the inverse of
// the decoder; used to build fixtures and interoperate with ChampSim
// itself).
func WriteChampSim(w io.Writer, recs []ChampSimRecord) error {
	bw := bufio.NewWriter(w)
	var buf [ChampSimRecordSize]byte
	for i := range recs {
		r := &recs[i]
		binary.LittleEndian.PutUint64(buf[0:8], r.IP)
		buf[8] = r.IsBranch
		buf[9] = r.BranchTaken
		copy(buf[10:12], r.DstRegs[:])
		copy(buf[12:16], r.SrcRegs[:])
		for j := 0; j < champSimDsts; j++ {
			binary.LittleEndian.PutUint64(buf[16+8*j:24+8*j], r.DstMem[j])
		}
		for j := 0; j < champSimSrcs; j++ {
			binary.LittleEndian.PutUint64(buf[32+8*j:40+8*j], r.SrcMem[j])
		}
		if _, err := bw.Write(buf[:]); err != nil {
			return fmt.Errorf("trace: writing champsim record %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// expandChampSim appends the Instr expansion of rec to dst. nextIP is the
// following record's IP (the taken-branch target); pass rec.IP+4 at end of
// trace.
func expandChampSim(dst []Instr, rec *ChampSimRecord, nextIP uint64) []Instr {
	n := len(dst)
	for _, a := range rec.SrcMem {
		if a != 0 {
			dst = append(dst, Instr{PC: rec.IP, Kind: Load, Addr: a})
		}
	}
	for _, a := range rec.DstMem {
		if a != 0 {
			dst = append(dst, Instr{PC: rec.IP, Kind: Store, Addr: a})
		}
	}
	if rec.IsBranch != 0 {
		taken := rec.BranchTaken != 0
		target := rec.IP + 4
		if taken {
			target = nextIP
		}
		dst = append(dst, Instr{PC: rec.IP, Kind: Branch, Addr: target, Taken: taken})
	} else if len(dst) == n {
		dst = append(dst, Instr{PC: rec.IP, Kind: Op})
	}
	return dst
}

// ChampSimReader streams a ChampSim trace through the Reader interface
// without materialising it: one record of lookahead (for branch targets)
// and a small pending buffer. Reset re-opens the underlying source, so the
// same reader replays deterministically across warmup/measure phases and
// sampled-mode rewinds.
//
// Decode failures cannot surface through Next (the Reader contract has no
// error path); the stream ends instead and Err reports the typed
// *ChampSimError. Callers that need strictness check Err after the run;
// sim's run entry points do, and fail the run at stage "trace".
type ChampSimReader struct {
	open func() (io.ReadCloser, error)

	rc  io.ReadCloser
	br  *bufio.Reader
	off int64
	// raw holds the record being read. It lives in the reader because a
	// local array would escape through io.ReadFull, one allocation per
	// record.
	raw     [ChampSimRecordSize]byte
	ahead   ChampSimRecord
	haveRec bool
	pending []Instr
	pos     int
	err     error
	started bool
}

// NewChampSimReader builds a streaming reader over an opener, which is
// invoked once per replay (Reset calls it again). The opener returns the
// raw, already-decompressed byte stream.
func NewChampSimReader(open func() (io.ReadCloser, error)) *ChampSimReader {
	return &ChampSimReader{open: open}
}

// OpenChampSim opens a ChampSim trace file as a streaming reader,
// decompressing .gz in-process. .xz traces must be decompressed externally
// (xz -d); the in-process toolchain has no xz decoder and guessing would
// mean shipping one.
func OpenChampSim(path string) (*ChampSimReader, error) {
	switch {
	case strings.HasSuffix(path, ".xz"):
		return nil, fmt.Errorf("trace: %s: xz framing is not decoded in-process; decompress externally (xz -d) and re-point at the raw trace", path)
	case strings.HasSuffix(path, ".gz"):
		return NewChampSimReader(func() (io.ReadCloser, error) {
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			zr, err := gzip.NewReader(f)
			if err != nil {
				f.Close()
				return nil, fmt.Errorf("trace: %s: %w", path, err)
			}
			return &gzipReadCloser{zr: zr, f: f}, nil
		}), nil
	default:
		return NewChampSimReader(func() (io.ReadCloser, error) { return os.Open(path) }), nil
	}
}

// gzipReadCloser closes both the gzip layer and the underlying file.
type gzipReadCloser struct {
	zr *gzip.Reader
	f  *os.File
}

func (g *gzipReadCloser) Read(p []byte) (int, error) { return g.zr.Read(p) }
func (g *gzipReadCloser) Close() error {
	zerr := g.zr.Close()
	ferr := g.f.Close()
	if zerr != nil {
		return zerr
	}
	return ferr
}

// start opens the source and primes the lookahead. A stream that has
// failed stays failed: it is not re-opened.
func (r *ChampSimReader) start() {
	r.started = true
	if r.err != nil {
		return
	}
	rc, err := r.open()
	if err != nil {
		r.err = err
		return
	}
	r.rc = rc
	r.br = bufio.NewReaderSize(rc, 1<<16)
	r.off = 0
	r.haveRec = r.readRecord(&r.ahead)
}

// readRecord reads one raw record into out; false at clean EOF or on error
// (recorded in r.err).
func (r *ChampSimReader) readRecord(out *ChampSimRecord) bool {
	if r.err != nil {
		return false
	}
	n, err := io.ReadFull(r.br, r.raw[:])
	if err == io.EOF {
		return false
	}
	if err != nil { // io.ErrUnexpectedEOF or a real read error
		r.err = &ChampSimError{Offset: r.off + int64(n),
			Reason: fmt.Sprintf("truncated record (%d of %d bytes): %v", n, ChampSimRecordSize, err)}
		return false
	}
	r.off += ChampSimRecordSize
	*out = decodeChampSimRecord(&r.raw)
	return true
}

// refill expands the lookahead record, pulling the next one in behind it.
func (r *ChampSimReader) refill() {
	r.pending = r.pending[:0]
	r.pos = 0
	if !r.haveRec {
		return
	}
	cur := r.ahead
	r.haveRec = r.readRecord(&r.ahead)
	nextIP := cur.IP + 4
	if r.haveRec {
		nextIP = r.ahead.IP
	}
	r.pending = expandChampSim(r.pending, &cur, nextIP)
}

// Next implements Reader.
func (r *ChampSimReader) Next() (Instr, bool) {
	if !r.started {
		r.start()
	}
	for r.pos >= len(r.pending) {
		if !r.haveRec {
			return Instr{}, false
		}
		r.refill()
	}
	in := r.pending[r.pos]
	r.pos++
	return in, true
}

// NextBatch implements BatchReader over the buffered expansion of the
// current record.
func (r *ChampSimReader) NextBatch(max int) []Instr {
	if !r.started {
		r.start()
	}
	for r.pos >= len(r.pending) {
		if !r.haveRec {
			return nil
		}
		r.refill()
	}
	b := r.pending[r.pos:]
	if len(b) > max {
		b = b[:max]
	}
	r.pos += len(b)
	return b
}

// Reset implements Reader: the source is closed and re-opened, so the next
// Next replays from the first record. A decode or I/O error survives Reset:
// replaying a torn trace's prefix would hide the tear, so the stream stays
// ended and Err keeps reporting it. Only a clean end of trace replays.
func (r *ChampSimReader) Reset() {
	if r.rc != nil {
		r.rc.Close()
		r.rc = nil
	}
	r.br = nil
	r.pending = r.pending[:0]
	r.pos = 0
	r.haveRec = false
	r.started = false
}

// Close releases the underlying source (idempotent).
func (r *ChampSimReader) Close() error {
	var err error
	if r.rc != nil {
		err = r.rc.Close()
		r.rc = nil
	}
	return err
}

// Err reports the decode or I/O failure that ended the stream, if any; nil
// after a clean end-of-trace. A truncated trace is *ChampSimError.
func (r *ChampSimReader) Err() error { return r.err }

// DecodeChampSim decodes up to max instructions (0 = all) from an
// already-decompressed byte stream. Truncated input yields the typed
// *ChampSimError.
func DecodeChampSim(rd io.Reader, max int) ([]Instr, error) {
	r := NewChampSimReader(func() (io.ReadCloser, error) {
		return io.NopCloser(rd), nil
	})
	defer r.Close()
	var out []Instr
	for max <= 0 || len(out) < max {
		in, ok := r.Next()
		if !ok {
			break
		}
		out = append(out, in)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// --- external-source workloads -------------------------------------------

// Source identifies an external trace file backing a workload. Identity is
// the file's content hash, not its path: two copies of the same trace share
// every content-addressed cache cell, and a changed file invalidates them.
type Source struct {
	// Path locates the file on this machine; excluded from identity.
	Path string `json:"-"`
	// Format is the decoder: "champsim" today.
	Format string `json:"format"`
	// SHA256 is the hex digest of the file bytes (compressed form as
	// stored, for .gz sources).
	SHA256 string `json:"sha256"`
}

// LoadChampSim wraps a ChampSim trace file as a Workload: hashed for
// content addressing, named after the file, replayable through every
// simulation mode via NewReader. The whole file is read once here (for the
// digest); simulation itself streams.
func LoadChampSim(path string) (Workload, error) {
	f, err := os.Open(path)
	if err != nil {
		return Workload{}, fmt.Errorf("trace: %w", err)
	}
	h := sha256.New()
	_, cerr := io.Copy(h, f)
	f.Close()
	if cerr != nil {
		return Workload{}, fmt.Errorf("trace: hashing %s: %w", path, cerr)
	}
	// Fail fast on framing problems (.xz, unreadable gzip header) at load
	// time instead of at first Next.
	probe, err := OpenChampSim(path)
	if err != nil {
		return Workload{}, err
	}
	if _, ok := probe.Next(); !ok {
		perr := probe.Err()
		probe.Close()
		if perr != nil {
			return Workload{}, perr
		}
		return Workload{}, fmt.Errorf("trace: %s: empty champsim trace", path)
	}
	probe.Close()
	return Workload{
		Name:            "champsim." + champSimStem(path),
		Suite:           "champsim",
		MemoryIntensive: true,
		Weight:          1,
		Source: &Source{
			Path:   path,
			Format: "champsim",
			SHA256: hex.EncodeToString(h.Sum(nil)),
		},
	}, nil
}

// champSimStem derives a workload-name stem from a trace path, stripping
// compression and trace-format suffixes (600.perlbench_s.champsimtrace.xz →
// 600.perlbench_s).
func champSimStem(path string) string {
	base := filepath.Base(path)
	for _, suf := range []string{".xz", ".gz"} {
		base = strings.TrimSuffix(base, suf)
	}
	for _, suf := range []string{".champsimtrace", ".champsim", ".trace"} {
		base = strings.TrimSuffix(base, suf)
	}
	if base == "" {
		return "trace"
	}
	return base
}
