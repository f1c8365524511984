package vm

import (
	"repro/internal/mem"
)

// Translation is the result of translating a virtual address: the physical
// address and the size of the backing page — the address-translation metadata
// whose page-size component PPM propagates to the lower-level prefetchers.
type Translation struct {
	PAddr mem.Addr
	Size  mem.PageSize
}

// AddressSpace is one process's virtual address space: a page table populated
// on first touch according to a THP policy, over a shared physical allocator.
type AddressSpace struct {
	alloc  *Allocator
	pt     *PageTable
	policy THPPolicy

	// decided records, per 2MB-aligned virtual region, whether the policy
	// chose a huge page; a region decided "small" is then populated with
	// scattered 4KB frames page by page.
	decided map[mem.Addr]bool
	// decided1G records per 1GB-aligned virtual region whether an explicit
	// 1GB mapping was requested (GigaPolicy, the hugetlbfs analogue).
	decided1G map[mem.Addr]bool
	regions   int
}

// GigaPolicy is an optional extension of THPPolicy: a policy that also
// implements it may claim whole 1GB-aligned virtual regions for explicit 1GB
// pages, the analogue of a manual hugetlbfs mapping (Linux never does this
// transparently).
type GigaPolicy interface {
	Use1GB(vregion mem.Addr) bool
}

// NewAddressSpace creates an address space over alloc with the given THP
// policy. A nil policy maps everything with 4KB pages.
func NewAddressSpace(alloc *Allocator, policy THPPolicy) *AddressSpace {
	return newAddressSpaceOn(alloc, policy, NewPageTable(alloc))
}

// newAddressSpaceOn builds an address space over alloc whose page table is
// pt.
func newAddressSpaceOn(alloc *Allocator, policy THPPolicy, pt *PageTable) *AddressSpace {
	if policy == nil {
		policy = FractionTHP{Frac: 0}
	}
	return &AddressSpace{
		alloc:     alloc,
		pt:        pt,
		policy:    policy,
		decided:   make(map[mem.Addr]bool),
		decided1G: make(map[mem.Addr]bool),
	}
}

// Release returns the page table's storage for the next address space
// (PageTable.Release). The address space must not translate afterwards.
func (as *AddressSpace) Release() { as.pt.Release() }

// PageTable exposes the underlying page table (for the walker).
func (as *AddressSpace) PageTable() *PageTable { return as.pt }

// mapNew installs a mapping for the page containing v, which must be
// unmapped, consulting the THP policy on the first touch of each 2MB virtual
// region. Translate calls it only after its own lookup misses, so the hot
// (already-mapped) path probes the page table exactly once.
func (as *AddressSpace) mapNew(v mem.Addr) {
	if gp, ok := as.policy.(GigaPolicy); ok {
		gregion := mem.PageBase(v, mem.Page1G)
		use, seen := as.decided1G[gregion]
		if !seen {
			use = gp.Use1GB(gregion)
			as.decided1G[gregion] = use
		}
		if use {
			as.pt.Map(gregion, PTE{Frame: as.alloc.Alloc1G(), Size: mem.Page1G, Valid: true})
			return
		}
	}
	region := mem.PageBase(v, mem.Page2M)
	huge, seen := as.decided[region]
	if !seen {
		huge = as.policy.Use2MB(region, as.regions)
		as.decided[region] = huge
		as.regions++
	}
	if huge {
		as.pt.Map(region, PTE{Frame: as.alloc.Alloc2M(), Size: mem.Page2M, Valid: true})
		return
	}
	as.pt.Map(mem.PageBase(v, mem.Page4K),
		PTE{Frame: as.alloc.Alloc4K(), Size: mem.Page4K, Valid: true})
}

// Translate returns the translation for v, demand-populating the mapping.
// It performs no timing; the MMU models TLB and walk latency separately.
func (as *AddressSpace) Translate(v mem.Addr) Translation {
	pte, ok := as.pt.Lookup(v)
	if !ok {
		as.mapNew(v)
		pte, _ = as.pt.Lookup(v)
	}
	off := v & (pte.Size.Bytes() - 1)
	return Translation{PAddr: pte.Frame + off, Size: pte.Size}
}

// LookupOnly translates v only if it is already mapped, without
// demand-populating. Prefetchers use it so speculation never creates
// mappings.
func (as *AddressSpace) LookupOnly(v mem.Addr) (Translation, bool) {
	pte, ok := as.pt.Lookup(v)
	if !ok {
		return Translation{}, false
	}
	off := v & (pte.Size.Bytes() - 1)
	return Translation{PAddr: pte.Frame + off, Size: pte.Size}, true
}

// WalkFor returns the walk references and translation for v, which must
// already be mapped (Translate demand-populates). The walk itself doubles as
// the residency probe: only a missing mapping pays the extra mapNew + rewalk.
func (as *AddressSpace) WalkFor(v mem.Addr) (WalkResult, Translation) {
	r, ok := as.pt.Walk(v)
	if !ok {
		as.mapNew(v)
		if r, ok = as.pt.Walk(v); !ok {
			panic("vm: walk of unmapped address")
		}
	}
	off := v & (r.PTE.Size.Bytes() - 1)
	return r, Translation{PAddr: r.PTE.Frame + off, Size: r.PTE.Size}
}
