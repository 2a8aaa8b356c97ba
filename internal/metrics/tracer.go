package metrics

import (
	"bufio"
	"fmt"
	"io"
)

// EventKind enumerates the traced micro-events.
type EventKind uint8

// The traced event vocabulary. A and B are event-specific operands,
// documented per kind.
const (
	// EvTLBMiss: a demand or prefetch translation missed both TLB levels.
	// A = 4K virtual page number, B = 1 when the requester was a prefetch.
	EvTLBMiss EventKind = iota
	// EvWalkBegin: the page-table walker started a walk.
	// A = 4K virtual page number, B = 1 when speculative (prefetch-triggered).
	EvWalkBegin
	// EvWalkEnd: a walk completed. A = 4K virtual page number,
	// B = completion cycle.
	EvWalkEnd
	// EvPageCrossIssue: a page-cross prefetch was issued past the policy.
	// A = target virtual address, B = physical line address.
	EvPageCrossIssue
	// EvPageCrossDrop: a page-cross prefetch was discarded (policy said no,
	// or the speculative walk was denied). A = target virtual address,
	// B = 1 when the drop came from a denied walk.
	EvPageCrossDrop
	// EvStallSnapshot: the watchdog captured a stall diagnostic.
	// A = retired instructions, B = last retire cycle.
	EvStallSnapshot

	numEventKinds
)

// String names the kind for exports.
func (k EventKind) String() string {
	switch k {
	case EvTLBMiss:
		return "tlb-miss"
	case EvWalkBegin:
		return "walk-begin"
	case EvWalkEnd:
		return "walk-end"
	case EvPageCrossIssue:
		return "pgc-issue"
	case EvPageCrossDrop:
		return "pgc-drop"
	case EvStallSnapshot:
		return "stall-snapshot"
	}
	return fmt.Sprintf("kind-%d", uint8(k))
}

// Event is one traced micro-event. The struct is flat (four words) so the
// ring buffer is a single backing array and Emit never allocates.
type Event struct {
	Cycle uint64
	Kind  EventKind
	A, B  uint64
}

// Tracer is a fixed-capacity ring buffer of events. A nil *Tracer is the
// disabled state: Emit on nil is a single branch, costs no allocation and
// touches no memory — the hot-path guarantee bench_test.go locks down.
type Tracer struct {
	buf   []Event
	next  int
	total uint64
	drops [numEventKinds]uint64 // per-kind counts including overwritten events
}

// NewTracer builds a tracer that retains the last capacity events.
func NewTracer(capacity int) (*Tracer, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("metrics: tracer capacity %d must be positive", capacity)
	}
	return &Tracer{buf: make([]Event, 0, capacity)}, nil
}

// Enabled reports whether the tracer records events.
func (t *Tracer) Enabled() bool { return t != nil }

// Emit records one event, overwriting the oldest when full. Nil-safe.
func (t *Tracer) Emit(cycle uint64, kind EventKind, a, b uint64) {
	if t == nil {
		return
	}
	t.total++
	if int(kind) < len(t.drops) {
		t.drops[kind]++
	}
	e := Event{Cycle: cycle, Kind: kind, A: a, B: b}
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, e)
		return
	}
	t.buf[t.next] = e
	t.next = (t.next + 1) % len(t.buf)
}

// Total returns the lifetime number of emitted events (including those the
// ring has since overwritten).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.total
}

// KindCount returns the lifetime emit count for one kind.
func (t *Tracer) KindCount(k EventKind) uint64 {
	if t == nil || int(k) >= len(t.drops) {
		return 0
	}
	return t.drops[k]
}

// Events returns the retained events oldest-first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// Reset drops all retained events and zeroes the lifetime counts.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.buf = t.buf[:0]
	t.next = 0
	t.total = 0
	t.drops = [numEventKinds]uint64{}
}

// eventMetricNames are the per-kind counter names, relative to the prefix
// the tracer registers under.
var eventMetricNames = func() (names [numEventKinds]string) {
	for k := range names {
		names[k] = "events." + EventKind(k).String()
	}
	return names
}()

// EmitMetrics implements Source: lifetime event totals per kind, so
// snapshots record event-rate statistics even when the ring has wrapped.
func (t *Tracer) EmitMetrics(emit Emit) {
	for k, n := range t.drops {
		emit(eventMetricNames[k], KindCounter, n)
	}
}

// WriteJSONL writes the retained events as JSON lines:
// {"cycle":..,"kind":"..","a":..,"b":..}
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	for _, e := range t.Events() {
		if _, err := fmt.Fprintf(bw, "{\"cycle\":%d,\"kind\":%q,\"a\":%d,\"b\":%d}\n",
			e.Cycle, e.Kind.String(), e.A, e.B); err != nil {
			return err
		}
	}
	return bw.Flush()
}
