package core

import "testing"

// BenchmarkUpdateBuffer times the pUB's operations on a full buffer of the
// default 128 entries, keyed by physical line addresses the way
// RecordIssue and the eviction path key it.
func BenchmarkUpdateBuffer(b *testing.B) {
	const entries = 128
	key := func(i uint64) uint64 { return 0x40000 + i*0x9E37 }
	full := func() *UpdateBuffer {
		ub := NewUpdateBuffer(entries)
		for i := uint64(0); i < entries; i++ {
			ub.Insert(key(i), progTag(int32(i)))
		}
		return ub
	}
	tag := progTag(1, 2, 3, 4, 5, 6)

	b.Run("insert-evict", func(b *testing.B) {
		// Every key is new, so every insert evicts the oldest entry.
		ub := full()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ub.Insert(key(entries+uint64(i)), tag)
		}
	})
	b.Run("insert-refresh", func(b *testing.B) {
		ub := full()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ub.Insert(key(uint64(i)%entries), tag)
		}
	})
	b.Run("take-hit", func(b *testing.B) {
		// Each resident key is taken and put back, so the buffer stays
		// full; the time covers one Take and one Insert into a free slot.
		ub := full()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := key(uint64(i) % entries)
			if _, ok := ub.Take(k); !ok {
				b.Fatal("resident key missed")
			}
			ub.Insert(k, tag)
		}
	})
	b.Run("take-miss", func(b *testing.B) {
		ub := full()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := ub.Take(key(entries + uint64(i))); ok {
				b.Fatal("absent key hit")
			}
		}
	})
}
