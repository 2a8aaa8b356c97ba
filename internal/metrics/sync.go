package metrics

import "sync/atomic"

// SyncCounter is a monotonically increasing counter safe for concurrent
// use. The simulator's own components use the unsynchronised Counter (each
// simulated system is single-threaded); SyncCounter exists for control-plane
// code — the campaign daemon's job accounting, HTTP admission counters —
// where many goroutines share one registry. Like Counter, every method is a
// nil-safe no-op and the zero value is ready to use.
type SyncCounter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *SyncCounter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *SyncCounter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *SyncCounter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Reset zeroes the counter.
func (c *SyncCounter) Reset() {
	if c != nil {
		c.v.Store(0)
	}
}

// SyncCounter creates and registers a concurrency-safe counter. It is
// exported through the snapshot like any other counter (the registry
// samples it atomically at snapshot time) but Registry.Reset leaves it
// alone. Registration itself follows the registry's single-writer setup
// phase: register everything before the first concurrent Snapshot, then
// only mutate through the returned counter.
func (r *Registry) SyncCounter(name string) *SyncCounter {
	c := &SyncCounter{}
	r.owned = append(r.owned, owned{name: name, sync: c})
	return c
}
