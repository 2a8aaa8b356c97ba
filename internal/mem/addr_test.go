package mem

import (
	"testing"
	"testing/quick"
)

func TestLineAlignment(t *testing.T) {
	cases := []struct {
		in   VAddr
		line VAddr
	}{
		{0, 0},
		{1, 0},
		{63, 0},
		{64, 64},
		{0x1234, 0x1200},
		{0xFFFF_FFFF_FFFF, 0xFFFF_FFFF_FFC0},
	}
	for _, c := range cases {
		if got := c.in.Line(); got != c.line {
			t.Errorf("VAddr(%#x).Line() = %#x, want %#x", uint64(c.in), uint64(got), uint64(c.line))
		}
	}
}

func TestPageGeometry(t *testing.T) {
	a := VAddr(0x7fff_1234_5678)
	if a.Page() != 0x7fff_1234_5000 {
		t.Fatalf("Page() = %#x", uint64(a.Page()))
	}
	if a.PageID() != 0x7fff_1234_5 {
		t.Fatalf("PageID() = %#x", a.PageID())
	}
	if a.PageOffset() != 0x678 {
		t.Fatalf("PageOffset() = %#x", a.PageOffset())
	}
	if a.LargePageID() != 0x7fff_1234_5678>>LargePageBits {
		t.Fatalf("LargePageID() = %#x", a.LargePageID())
	}
}

func TestTranslatePreservesOffset(t *testing.T) {
	va := VAddr(0x7fff_0000_0abc)
	pa := Translate(va, PAddr(0x9000_0000), Page4K)
	if pa != 0x9000_0abc {
		t.Fatalf("Translate 4K = %#x", uint64(pa))
	}
	pa2 := Translate(VAddr(0x7fff_0012_3abc), PAddr(0x4000_0000), Page2M)
	if pa2 != 0x4012_3abc {
		t.Fatalf("Translate 2M = %#x", uint64(pa2))
	}
}

func TestPageSizeKind(t *testing.T) {
	if Page4K.Bytes() != 4096 || Page2M.Bytes() != 2<<20 {
		t.Fatal("page size bytes wrong")
	}
	if Page4K.String() != "4K" || Page2M.String() != "2M" {
		t.Fatal("page size names wrong")
	}
}

func TestAccessType(t *testing.T) {
	demand := []AccessType{Load, Store, InstrFetch}
	for _, d := range demand {
		if !d.IsDemand() {
			t.Errorf("%v should be demand", d)
		}
	}
	nonDemand := []AccessType{Prefetch, Translation, PTWRead, Writeback}
	for _, d := range nonDemand {
		if d.IsDemand() {
			t.Errorf("%v should not be demand", d)
		}
	}
	for _, d := range append(demand, nonDemand...) {
		if d.String() == "unknown" {
			t.Errorf("%d has no name", d)
		}
	}
}

// Property: line/page alignment is idempotent and ordering-compatible.
func TestAlignmentProperties(t *testing.T) {
	idempotent := func(x uint64) bool {
		a := VAddr(x)
		return a.Line().Line() == a.Line() &&
			a.Page().Page() == a.Page()
	}
	if err := quick.Check(idempotent, nil); err != nil {
		t.Error(err)
	}
	contained := func(x uint64) bool {
		a := VAddr(x)
		return a.Page() <= a.Line() && a.Line() <= a
	}
	if err := quick.Check(contained, nil); err != nil {
		t.Error(err)
	}
	translateOffset := func(x uint64, frame uint32) bool {
		va := VAddr(x)
		pa := Translate(va, PAddr(uint64(frame))<<PageBits, Page4K)
		return pa.PageOffset() == va.PageOffset()
	}
	if err := quick.Check(translateOffset, nil); err != nil {
		t.Error(err)
	}
}
