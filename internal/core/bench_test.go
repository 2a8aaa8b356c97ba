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

// issuedSink keeps the compiler from dropping the benchmarked Decide call.
var issuedSink int

// BenchmarkFilter times DRIPPER's per-candidate work on the Berti
// configuration: Decide alone, and Decide plus one training round trip
// (RecordIssue into the pUB, then OnEvictPCB of the never-hit block, which
// punishes the consulted weights). The inputs cycle through 256 distinct
// PCs, addresses and deltas so every feature table sees varied indexes.
func BenchmarkFilter(b *testing.B) {
	const n = 256
	ins := make([]Input, n)
	for i := range ins {
		u := uint64(i)
		ins[i] = Input{
			PC: 0x401000 + u*0x34, VA: 0x7f0000000000 + u*0x9E3779B1&^0x3f,
			Delta: int64(i%13) - 6, PrevVA1: 0x7f0000001000 + u*0x1c0, PrevVA2: 0x7f0000002000 + u*0x2c0,
			PrevPC1: 0x401000 + u*0x18, PrevPC2: 0x401000 + u*0x2c, FirstPageAccess: i%7 == 0, Meta: u % 16,
		}
	}
	filter := func(b *testing.B) *Filter {
		f, err := NewFilter(DefaultDripperConfig("berti"))
		if err != nil {
			b.Fatal(err)
		}
		return f
	}

	b.Run("decide", func(b *testing.B) {
		f := filter(b)
		issued := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if ok, _ := f.Decide(ins[i%n]); ok {
				issued++
			}
		}
		issuedSink = issued
	})
	b.Run("decide-train", func(b *testing.B) {
		f := filter(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			in := ins[i%n]
			_, tag := f.Decide(in)
			pa := in.VA>>6 + uint64(in.Delta)
			f.RecordIssue(pa, tag)
			f.OnEvictPCB(pa, false)
		}
	})
}
