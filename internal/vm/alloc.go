// Package vm implements the virtual-memory substrate the paper's mechanism
// rests on: a 4-level radix page table with 4KB and 2MB mappings, a physical
// frame allocator that deliberately scatters 4KB frames (so that virtual
// contiguity does NOT imply physical contiguity, the property that makes
// page-boundary crossing unsafe), a THP-like large-page policy, a two-level
// TLB hierarchy, and a page-table walker that issues its references into the
// cache hierarchy.
package vm

import (
	"fmt"

	"repro/internal/mem"
)

// Allocator hands out physical frames. The physical space is partitioned into
// three regions:
//
//   - a page-table region (bump-allocated radix-tree nodes),
//   - a huge-page region (bump-allocated, naturally 2MB-aligned), and
//   - a small-frame region from which 4KB frames are drawn pseudo-randomly,
//     modelling a fragmented physical memory in which consecutive virtual
//     4KB pages land on unrelated physical frames.
type Allocator struct {
	physBytes mem.Addr

	ptNext mem.Addr // bump pointer inside the page-table region
	ptEnd  mem.Addr

	hugeNext mem.Addr // bump pointer inside the 2MB huge region
	hugeEnd  mem.Addr

	gigaNext mem.Addr // bump pointer inside the 1GB page region (may be empty)
	gigaEnd  mem.Addr

	smallBase   mem.Addr
	smallFrames uint64 // number of 4KB frames in the small region
	// smallUsed is a bitset over frame indices (one bit per 4KB frame, ~32KB
	// per mapped GB); it replaced a map[uint64]struct{} whose hashing and
	// growth dominated demand-fault time on 4KB-heavy workloads. The frame
	// sequence is unchanged: same splitmix64 draws, same collision skips. It
	// outlives the allocator through Release (see slab.go).
	smallUsed  *frameBitmap
	smallCount uint64 // number of set bits in smallUsed
	rngState   uint64

	// Mapped memory accounting, used to reproduce Figure 3.
	Bytes4K mem.Addr
	Bytes2M mem.Addr
	Bytes1G mem.Addr
}

// NewAllocator creates an allocator for a physical memory of physBytes bytes
// (e.g. 8GB for the single-core configuration). Seed perturbs the 4KB frame
// scattering. Its frame bitmap comes from the pool when a released allocator
// with the same small-region size left one there; Release hands it back.
func NewAllocator(physBytes mem.Addr, seed uint64) *Allocator {
	a := newAllocator(physBytes, seed)
	a.smallUsed = getBitmap(a.smallFrames)
	return a
}

// newAllocator lays out the regions of an allocator without its frame
// bitmap, which the caller installs before the first Alloc4K.
func newAllocator(physBytes mem.Addr, seed uint64) *Allocator {
	if physBytes < 64<<20 {
		panic(fmt.Sprintf("vm: physical memory too small: %d", physBytes))
	}
	ptSize := physBytes / 32
	hugeSize := physBytes / 2
	// Align the region boundaries to 2MB.
	ptSize = ptSize &^ (mem.PageSize2M - 1)
	hugeSize = hugeSize &^ (mem.PageSize2M - 1)
	a := &Allocator{
		physBytes: physBytes,
		ptNext:    0,
		ptEnd:     ptSize,
		hugeNext:  ptSize,
		hugeEnd:   ptSize + hugeSize,
		smallBase: ptSize + hugeSize,
		rngState:  seed*2654435761 + 0x9e3779b97f4a7c15,
	}
	a.smallFrames = uint64((physBytes - a.smallBase) >> mem.PageBits4K)
	// Physical memories of 4GB and above reserve one aligned 1GB region at
	// the top of memory for explicitly requested (hugetlbfs-style) 1GB
	// pages; the 4KB frame pool covers the space below it.
	if physBytes >= 4<<30 {
		gigaBase := (physBytes &^ (mem.PageSize1G - 1)) - mem.PageSize1G
		if gigaBase >= a.smallBase+mem.PageSize1G {
			a.gigaNext = gigaBase
			a.gigaEnd = gigaBase + mem.PageSize1G
			a.smallFrames = uint64((gigaBase - a.smallBase) >> mem.PageBits4K)
		}
	}
	return a
}

// Release returns the allocator's frame bitmap to the pool for the next
// allocator with the same small region. The allocator must not allocate a
// 4KB frame afterwards (Alloc4K panics); Bytes4K, Bytes2M, Bytes1G and what
// reads only them — MappedBytes, Frac2M — stay readable, and so does
// PageSizeOf. Releasing twice is a no-op.
func (a *Allocator) Release() {
	if b := a.smallUsed; b != nil {
		a.smallUsed = nil
		putBitmap(a.smallFrames, b)
	}
}

// Alloc1G returns a fresh, 1GB-aligned, physically contiguous frame; it
// panics when the reservation is exhausted (mirroring a failed hugetlbfs
// reservation).
func (a *Allocator) Alloc1G() mem.Addr {
	if a.gigaNext+mem.PageSize1G > a.gigaEnd {
		panic("vm: 1GB page region exhausted")
	}
	p := a.gigaNext
	a.gigaNext += mem.PageSize1G
	a.Bytes1G += mem.PageSize1G
	return p
}

// next64 is a splitmix64 step, deterministic per allocator.
func (a *Allocator) next64() uint64 {
	a.rngState += 0x9e3779b97f4a7c15
	z := a.rngState
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// AllocPTNode returns the physical base address of a fresh 4KB page-table
// node.
func (a *Allocator) AllocPTNode() mem.Addr {
	if a.ptNext+mem.PageSize4K > a.ptEnd {
		panic("vm: page-table region exhausted")
	}
	p := a.ptNext
	a.ptNext += mem.PageSize4K
	return p
}

// Alloc2M returns a fresh, 2MB-aligned, physically contiguous frame.
func (a *Allocator) Alloc2M() mem.Addr {
	if a.hugeNext+mem.PageSize2M > a.hugeEnd {
		panic("vm: huge-page region exhausted")
	}
	p := a.hugeNext
	a.hugeNext += mem.PageSize2M
	a.Bytes2M += mem.PageSize2M
	return p
}

// Alloc4K returns a fresh 4KB frame chosen pseudo-randomly from the small
// region, so that successive allocations are physically scattered.
func (a *Allocator) Alloc4K() mem.Addr {
	if a.smallCount >= a.smallFrames {
		panic("vm: small-frame region exhausted")
	}
	for {
		f := a.next64() % a.smallFrames
		if a.smallUsed.set(f) {
			continue
		}
		a.smallCount++
		a.Bytes4K += mem.PageSize4K
		return a.smallBase + mem.Addr(f)<<mem.PageBits4K
	}
}

// PageSizeOf reports the size of the physical page containing paddr. The
// huge region only ever holds 2MB pages, so region membership is exact; this
// is the page-size oracle used by the Magic prefetcher variants and by the
// Figure 2 missed-opportunity accounting.
func (a *Allocator) PageSizeOf(paddr mem.Addr) mem.PageSize {
	if paddr >= a.ptEnd && paddr < a.hugeNext {
		return mem.Page2M
	}
	if a.gigaEnd > 0 && paddr >= a.gigaEnd-mem.PageSize1G && paddr < a.gigaNext {
		return mem.Page1G
	}
	return mem.Page4K
}

// MappedBytes returns the total bytes currently mapped (all page sizes).
func (a *Allocator) MappedBytes() mem.Addr { return a.Bytes4K + a.Bytes2M + a.Bytes1G }

// Frac2M returns the fraction of mapped memory backed by 2MB pages,
// the metric of Figure 3. Returns 0 when nothing is mapped.
func (a *Allocator) Frac2M() float64 {
	total := a.MappedBytes()
	if total == 0 {
		return 0
	}
	return float64(a.Bytes2M) / float64(total)
}

// THPPolicy decides, at first touch of a 2MB-aligned virtual region, whether
// the OS backs it with a single 2MB page (true) or with scattered 4KB pages
// (false). It stands in for Linux's transparent-huge-page machinery.
type THPPolicy interface {
	Use2MB(vregion mem.Addr, regionsMapped int) bool
}

// FractionTHP backs a fixed fraction of 2MB regions with huge pages,
// deterministically derived from the region address.
type FractionTHP struct {
	Frac float64 // 0..1
	Seed uint64
}

// Use2MB implements THPPolicy.
func (p FractionTHP) Use2MB(vregion mem.Addr, _ int) bool {
	if p.Frac >= 1 {
		return true
	}
	if p.Frac <= 0 {
		return false
	}
	h := (uint64(vregion>>mem.PageBits2M) + p.Seed) * 0x9e3779b97f4a7c15
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return float64(h%1000000)/1000000 < p.Frac
}

// RampTHP starts at StartFrac and ramps linearly to EndFrac as more regions
// are mapped, modelling workloads (e.g. mcf) whose huge-page share grows as
// khugepaged promotes memory during execution.
type RampTHP struct {
	StartFrac, EndFrac float64
	RampRegions        int // regions over which the ramp completes
	Seed               uint64
}

// Use2MB implements THPPolicy.
func (p RampTHP) Use2MB(vregion mem.Addr, regionsMapped int) bool {
	frac := p.EndFrac
	if p.RampRegions > 0 && regionsMapped < p.RampRegions {
		t := float64(regionsMapped) / float64(p.RampRegions)
		frac = p.StartFrac + (p.EndFrac-p.StartFrac)*t
	}
	return FractionTHP{Frac: frac, Seed: p.Seed}.Use2MB(vregion, regionsMapped)
}
