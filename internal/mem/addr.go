// Package mem defines the address arithmetic and request types shared by
// every component of the memory hierarchy: virtual and physical addresses,
// cache-line and page geometry (4KB base pages and 2MB large pages), and
// the access-type vocabulary used by caches, TLBs and the page-table walker.
package mem

// Fundamental geometry constants. They mirror the x86-64 configuration the
// paper simulates (Table IV): 64-byte cache lines, 4KB base pages, 2MB large
// pages, 48-bit virtual addresses translated by a 5-level radix page table.
const (
	LineBits = 6
	LineSize = 1 << LineBits // 64 B

	PageBits = 12
	PageSize = 1 << PageBits // 4 KB

	LargePageBits = 21
	LargePageSize = 1 << LargePageBits // 2 MB

	// LinesPerPage is the number of cache lines in a 4KB page.
	LinesPerPage = PageSize / LineSize // 64

	// VABits is the width of a canonical virtual address with 5-level paging.
	VABits = 57
)

// VAddr is a virtual address. The simulator keeps virtual and physical
// addresses as distinct types so that a virtual address can never be fed to
// a physically-indexed structure by accident.
type VAddr uint64

// PAddr is a physical address.
type PAddr uint64

// Line returns the cache-line-aligned address.
func (a VAddr) Line() VAddr { return a &^ (LineSize - 1) }

// LineID returns the cache-line number (address >> 6).
func (a VAddr) LineID() uint64 { return uint64(a) >> LineBits }

// Page returns the 4KB-page-aligned address.
func (a VAddr) Page() VAddr { return a &^ (PageSize - 1) }

// PageID returns the 4KB virtual page number.
func (a VAddr) PageID() uint64 { return uint64(a) >> PageBits }

// LargePageID returns the 2MB virtual page number.
func (a VAddr) LargePageID() uint64 { return uint64(a) >> LargePageBits }

// PageOffset returns the offset of the address inside its 4KB page.
func (a VAddr) PageOffset() uint64 { return uint64(a) & (PageSize - 1) }

// Line returns the cache-line-aligned physical address.
func (a PAddr) Line() PAddr { return a &^ (LineSize - 1) }

// LineID returns the physical cache-line number.
func (a PAddr) LineID() uint64 { return uint64(a) >> LineBits }

// Page returns the 4KB-page-aligned physical address.
func (a PAddr) Page() PAddr { return a &^ (PageSize - 1) }

// PageID returns the physical 4KB frame number.
func (a PAddr) PageID() uint64 { return uint64(a) >> PageBits }

// PageOffset returns the offset inside the 4KB frame.
func (a PAddr) PageOffset() uint64 { return uint64(a) & (PageSize - 1) }

// PageSizeKind distinguishes base pages from large pages in translations.
type PageSizeKind uint8

const (
	// Page4K is a 4KB base page.
	Page4K PageSizeKind = iota
	// Page2M is a 2MB large page.
	Page2M
)

// String returns "4K" or "2M".
func (k PageSizeKind) String() string {
	if k == Page2M {
		return "2M"
	}
	return "4K"
}

// Bytes returns the page size in bytes.
func (k PageSizeKind) Bytes() uint64 {
	if k == Page2M {
		return LargePageSize
	}
	return PageSize
}

// Translate applies a page translation (virtual page base → physical page
// base, of the given size) to a full virtual address, preserving the offset.
func Translate(va VAddr, physBase PAddr, k PageSizeKind) PAddr {
	mask := uint64(k.Bytes() - 1)
	return PAddr(uint64(physBase)&^mask | uint64(va)&mask)
}
