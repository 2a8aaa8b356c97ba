package mem

// AccessType classifies a memory-hierarchy request. The distinction matters
// throughout the hierarchy: demand loads train prefetchers and allocate
// MSHRs with wakeups, prefetches set the prefetch bit in the filled block,
// translation requests bypass the data path, and page-walk reads are issued
// by the hardware walker against the physical page table.
type AccessType uint8

const (
	// Load is a demand data load.
	Load AccessType = iota
	// Store is a demand data store (modelled write-allocate, write-back).
	Store
	// InstrFetch is a demand instruction fetch.
	InstrFetch
	// Prefetch is a hardware prefetch for data.
	Prefetch
	// Translation is a TLB lookup request.
	Translation
	// PTWRead is a page-table-walker read of a page-table entry.
	PTWRead
	// Writeback is a dirty-block writeback travelling down the hierarchy.
	Writeback
)

// String names the access type.
func (t AccessType) String() string {
	switch t {
	case Load:
		return "load"
	case Store:
		return "store"
	case InstrFetch:
		return "ifetch"
	case Prefetch:
		return "prefetch"
	case Translation:
		return "translation"
	case PTWRead:
		return "ptw-read"
	case Writeback:
		return "writeback"
	}
	return "unknown"
}

// IsDemand reports whether the access is a demand access (load, store or
// instruction fetch) as opposed to speculative/maintenance traffic.
func (t AccessType) IsDemand() bool {
	return t == Load || t == Store || t == InstrFetch
}
