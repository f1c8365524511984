package vm

import (
	"fmt"

	"repro/internal/mem"
)

// Radix-tree level indices for x86-64 4-level paging: PML4, PDPT, PD, PT.
// A 1GB mapping terminates at the PDPT level (2 node accesses per walk), a
// 2MB mapping at the PD level (3 accesses), and a 4KB mapping continues to
// the PT level (4 accesses).
const (
	levelPML4 = 0
	levelPDPT = 1
	levelPD   = 2
	levelPT   = 3
	numLevels = 4
)

// vaIndex extracts the 9-bit radix index of v at the given level.
func vaIndex(v mem.Addr, level int) int {
	shift := uint(12 + 9*(numLevels-1-level)) // PML4: 39, PDPT: 30, PD: 21, PT: 12
	return int((v >> shift) & 0x1ff)
}

// PTE is a leaf page-table entry.
type PTE struct {
	Frame mem.Addr // physical base of the mapped page
	Size  mem.PageSize
	Valid bool
}

// ptFanout is the radix of each level: 9 virtual-address bits per level.
const ptFanout = 512

// Page-table entry words. Each radix node is a 512-word slab inside one
// dense []uint64, so a walk reads exactly one word per level. The low bits
// of each word carry the entry kind (frames and node indices leave them free:
// frames are at least 4KB-aligned, node indices are shifted into place):
//
//	bit 0      present  (0 ⇒ empty slot)
//	bit 1      leaf     (0 ⇒ interior: bits 2.. hold the child node index)
//	bits 2-3   page size of a leaf (mem.PageSize), ready for a NAPOT-style
//	           64KB extension without reshaping the table
//	bits 12..  physical frame base of a leaf
const (
	ptePresent    = 1 << 0
	pteLeaf       = 1 << 1
	pteSizeShift  = 2
	pteSizeMask   = 3 << pteSizeShift
	pteChildShift = 2
)

// encodeLeafWord packs a leaf PTE into its entry word. The frame must be
// page-aligned for the encoded size (its low 12 bits are always free).
func encodeLeafWord(frame mem.Addr, size mem.PageSize) uint64 {
	if frame&(size.Bytes()-1) != 0 {
		panic(fmt.Sprintf("vm: leaf frame %#x not aligned to %v", frame, size))
	}
	if size >= mem.NumPageSizes {
		panic(fmt.Sprintf("vm: leaf size %d out of range", size))
	}
	return uint64(frame) | uint64(size)<<pteSizeShift | pteLeaf | ptePresent
}

// decodeLeafWord unpacks a leaf entry word. The word must have both present
// and leaf bits set; the caller checks.
func decodeLeafWord(w uint64) PTE {
	return PTE{
		Frame: mem.Addr(w) &^ (mem.PageSize4K - 1),
		Size:  mem.PageSize(w & pteSizeMask >> pteSizeShift),
		Valid: true,
	}
}

// PageTable is a 4-level x86-64-style radix page table whose nodes occupy
// simulated physical memory, so that page walks generate real references into
// the cache hierarchy. Node n occupies words[n*ptFanout : (n+1)*ptFanout] of
// one dense slab, and phys[n] is its simulated physical base (walk references
// target it). Node 0 is the root. Nodes are appended as paths populate, so the
// footprint tracks the touched fraction of the virtual space.
type PageTable struct {
	alloc *Allocator
	// slab owns the storage words and phys view; it outlives the table
	// through Release (see slab.go).
	slab  *ptSlab
	words []uint64
	phys  []mem.Addr
	pages int // number of leaf mappings
}

// initialNodes sizes a new table's slab for one root-to-4KB-leaf path
// (16 KB). addNode doubles it as paths populate, so a sparse table — the code
// address space maps a handful of pages — stays small. Node frames come from
// AllocPTNode either way: the capacity is host-side only and never changes a
// simulated address.
const initialNodes = numLevels

// NewPageTable creates an empty page table drawing node frames from alloc.
// Its slab comes from the pool when a released table left one there;
// Release hands it back.
func NewPageTable(alloc *Allocator) *PageTable {
	return newPageTableOn(alloc, getPTSlab(initialNodes))
}

// newPageTableOn builds an empty page table on slab s, which must be in its
// construction state (newPTSlab's, or a reset one); its capacity is
// host-side only.
func newPageTableOn(alloc *Allocator, s *ptSlab) *PageTable {
	pt := &PageTable{alloc: alloc, slab: s, words: s.words, phys: s.phys}
	pt.phys[0] = alloc.AllocPTNode()
	return pt
}

// Release returns the table's slab to the pool for the next table. The table
// must not be used afterwards: Map, Walk and Lookup panic instead of reading
// storage another table now owns. Pages stays readable. Releasing twice is a
// no-op.
func (pt *PageTable) Release() {
	if s := pt.detach(); s != nil {
		putPTSlab(s)
	}
}

// detach takes the slab away from the table, with its lengths brought up to
// date; nil once detached.
func (pt *PageTable) detach() *ptSlab {
	s := pt.slab
	if s != nil {
		s.words, s.phys = pt.words, pt.phys
	}
	pt.slab, pt.words, pt.phys = nil, nil, nil
	return s
}

// addNode appends a fresh zeroed node and returns its index.
func (pt *PageTable) addNode(phys mem.Addr) uint64 {
	n := uint64(len(pt.phys))
	// Length and capacity are whole nodes, so a full slab has len == cap.
	// Doubling keeps the bytes copied by growth below the final size;
	// append's growth for large slices is only ~1.25x per step. The full
	// slab goes back to the pool for the next table that grows past it.
	if len(pt.phys) == cap(pt.phys) {
		grown := getPTSlab(2 * cap(pt.phys))
		grown.words = append(grown.words[:0], pt.words...)
		grown.phys = append(grown.phys[:0], pt.phys...)
		putPTSlab(pt.detach())
		pt.slab, pt.words, pt.phys = grown, grown.words, grown.phys
	}
	pt.phys = append(pt.phys, phys)
	pt.words = pt.words[:len(pt.words)+ptFanout]
	return n
}

// Map installs a leaf mapping for the page of size pte.Size containing v,
// creating interior nodes along the path. Mapping an already-mapped page, or
// below an existing larger leaf, panics: the address space owns dedup.
func (pt *PageTable) Map(v mem.Addr, pte PTE) {
	lastLevel := leafLevel(pte.Size)
	node := uint64(0)
	for level := levelPML4; level < lastLevel; level++ {
		slot := node*ptFanout + uint64(vaIndex(v, level))
		w := pt.words[slot]
		if w&ptePresent == 0 {
			child := pt.addNode(pt.alloc.AllocPTNode())
			pt.words[slot] = child<<pteChildShift | ptePresent
			node = child
			continue
		}
		if w&pteLeaf != 0 {
			panic("vm: mapping below an existing leaf")
		}
		node = w >> pteChildShift
	}
	slot := node*ptFanout + uint64(vaIndex(v, lastLevel))
	if pt.words[slot]&ptePresent != 0 {
		panic("vm: double mapping")
	}
	pt.words[slot] = encodeLeafWord(pte.Frame, pte.Size)
	pt.pages++
}

// WalkResult describes a completed page-table walk.
type WalkResult struct {
	PTE PTE
	// Refs are the physical addresses of the page-table entries read by the
	// walker, in root-to-leaf order; only Refs[:Levels] are meaningful. The
	// fixed array keeps Walk allocation-free on the TLB-miss path.
	Refs [numLevels]mem.Addr
	// Levels is the number of valid references: 4 for a 4KB mapping, 3 for a
	// 2MB one, 2 for 1GB.
	Levels int
}

// Walk resolves v, returning the leaf PTE and the per-level entry addresses
// (one entry word read per level). The boolean result is false when v is
// unmapped.
func (pt *PageTable) Walk(v mem.Addr) (WalkResult, bool) {
	var res WalkResult
	words, phys := pt.words, pt.phys
	node := uint64(0)
	for level := levelPML4; level < numLevels; level++ {
		idx := uint64(vaIndex(v, level))
		res.Refs[level] = phys[node] + mem.Addr(idx)*8
		res.Levels = level + 1
		w := words[node*ptFanout+idx]
		if w&ptePresent == 0 {
			return WalkResult{}, false
		}
		if w&pteLeaf != 0 {
			res.PTE = decodeLeafWord(w)
			return res, true
		}
		node = w >> pteChildShift
	}
	return WalkResult{}, false
}

// Lookup resolves v without recording walk references (the demand-mapping
// fast path: one word read per level, no Refs writes).
func (pt *PageTable) Lookup(v mem.Addr) (PTE, bool) {
	words := pt.words
	node := uint64(0)
	for level := levelPML4; level < numLevels; level++ {
		w := words[node*ptFanout+uint64(vaIndex(v, level))]
		if w&ptePresent == 0 {
			return PTE{}, false
		}
		if w&pteLeaf != 0 {
			return decodeLeafWord(w), true
		}
		node = w >> pteChildShift
	}
	return PTE{}, false
}

// Pages returns the number of installed leaf mappings.
func (pt *PageTable) Pages() int { return pt.pages }

// leafLevel returns the radix level at which a mapping of the given size
// terminates: PT for 4KB, PD for 2MB, PDPT for 1GB.
func leafLevel(s mem.PageSize) int {
	switch s {
	case mem.Page2M:
		return levelPD
	case mem.Page1G:
		return levelPDPT
	}
	return levelPT
}
