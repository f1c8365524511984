// Package prefetch defines the interface between the cache hierarchy and the
// prefetching algorithms, shared by every prefetcher implementation
// (internal/prefetch/spp, vldp, ppf, bop, ...) and by the page-size-aware
// machinery in internal/core.
//
// A prefetcher observes accesses (Context) and proposes Candidates. Candidate
// generation is deliberately unconstrained by the 4KB page boundary: the
// engine in internal/core applies the boundary policy (4KB always for the
// original variants; the residing page's boundary for the page-size-aware
// variants) and counts discarded page-crossing candidates — the quantity of
// the paper's Figure 2. Prefetchers must stop generating at Context.GenLimit,
// the 2MB region of the trigger, because beyond it physical contiguity can
// never be assumed.
package prefetch

import "repro/internal/mem"

// Context describes one lower-level-cache access as seen by a prefetcher.
type Context struct {
	// Addr is the block-aligned physical address of the access.
	Addr mem.Addr
	// VAddr is the block-aligned virtual address of the access.
	// Physical-side prefetchers ignore it; virtual-side prefetchers (vamp)
	// train on it instead of Addr. The engine falls back to the physical
	// address when a request carries no virtual address (harnesses without
	// translation), so on the engine path VAddr is never zero.
	VAddr mem.Addr
	// PC is the program counter of the triggering instruction (propagated
	// alongside the request).
	PC mem.Addr
	// Hit reports whether the access hit in the prefetcher's cache.
	Hit bool
	// Type is the access type (Load or Store for training purposes).
	Type mem.AccessType
	// PageSize is the effective page size the prefetcher may assume for the
	// block. For original (non-PSA) prefetchers this is always Page4K; for
	// PSA variants it is the PPM-propagated size.
	PageSize mem.PageSize
	// At is the cycle of the access.
	At mem.Cycle
}

// Candidate is one proposed prefetch.
type Candidate struct {
	// Addr is the block-aligned address to prefetch: physical by default,
	// virtual when Virtual is set.
	Addr mem.Addr
	// FillL2 selects the fill level: true for L2 (high confidence), false
	// for LLC only (moderate confidence).
	FillL2 bool
	// Virtual marks Addr as a virtual address. The engine must translate it
	// before issue — gated on a TLB probe so speculation never forces a page
	// walk — and the generation-limit and boundary contracts apply in
	// virtual address space, against the trigger's VAddr.
	Virtual bool
}

// GenLimitBits bounds candidate generation: no prefetcher may propose a
// candidate outside the 2MB-aligned region of the trigger block, because no
// supported page size exceeds 2MB and physical contiguity beyond the residing
// page is never guaranteed.
const GenLimitBits = mem.PageBits2M

// InGenLimit reports whether candidate c lies within the generation region of
// trigger t.
func InGenLimit(t, c mem.Addr) bool {
	return mem.SamePage(t, c, mem.Page2M)
}

// Prefetcher is a lower-level-cache prefetching algorithm.
//
// Operate trains the prefetcher on the access and proposes candidates via
// issue. Train updates internal state without proposing; the set-dueling
// composite uses it to keep the unselected competitor trained on all accesses
// (Section IV-B3). Release hands the prefetcher's tables to the next instance
// of the same shape (internal/slabpool): the prefetcher must not run
// afterwards, and Operate or Train on a released prefetcher panics.
// Releasing twice is a no-op.
type Prefetcher interface {
	Operate(ctx Context, issue func(Candidate))
	Train(ctx Context)
	Release()
}

// Note on batching: engines must dispatch each candidate through the issue
// callback the moment Operate proposes it, never buffer a burst and drain it
// after Operate returns. Issuing a prefetch can evict a line whose
// OnPrefetchUnused feedback synchronously retrains the proposing prefetcher
// (ppf's perceptron, spp's confidence tables), and the next candidate in the
// same lookahead burst must be generated and classified against those updated
// weights — deferred draining reorders that feedback loop and changes
// simulation results.

// FeedbackReceiver is implemented by prefetchers that learn from prefetch
// outcomes (PPF's perceptron, BOP's scoring).
type FeedbackReceiver interface {
	// PrefetchUseful reports a demand hit on a block this prefetcher
	// prefetched.
	PrefetchUseful(block mem.Addr)
	// PrefetchUnused reports the eviction of an untouched prefetched block.
	PrefetchUnused(block mem.Addr)
	// DemandMiss reports a demand miss (a prefetch opportunity that was
	// missed; PPF trains its reject table on these).
	DemandMiss(block mem.Addr)
}

// Factory constructs a prefetcher for a given internal indexing granularity.
// regionBits is the page size the prefetcher inherently assumes when indexing
// its internal structures: 12 (4KB) for original and PSA variants, 21 (2MB)
// for the PSA-2MB variants (Section IV-B1). Implementations without
// page-indexed structures may ignore it (e.g. BOP, making its PSA-2MB variant
// degenerate to PSA exactly as the paper reports).
type Factory func(regionBits uint) Prefetcher
