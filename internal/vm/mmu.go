package vm

import (
	"repro/internal/mem"
)

// Walk-cache tag word: key<<4 | level<<2 | 1, with 0 as the invalid
// sentinel. The level occupies two bits (only interior levels 0..2 are
// cached), and the key is a virtual-address prefix of at most 36 bits, so the
// packed word cannot collide.
func pwcTag(level int, key mem.Addr) uint64 {
	return uint64(key)<<4 | uint64(level)<<2 | 1
}

// WalkCache is a small fully-associative MMU cache over interior page-table
// entries (PML4/PDPT/PD level), keyed by the virtual-address prefix each
// translates: the MMU caches / page structure caches of Section II-B that let
// walks skip upper-level references. A zero-entry walk cache caches nothing,
// so every interior level of every walk goes to memory.
type WalkCache struct {
	tags    []uint64 // 0 = invalid
	lrus    []uint64
	tick    uint64
	Hits    uint64
	Lookups uint64
}

// NewWalkCache creates a walk cache with n entries.
func NewWalkCache(n int) *WalkCache {
	return &WalkCache{tags: make([]uint64, n), lrus: make([]uint64, n)}
}

func (w *WalkCache) contains(level int, key mem.Addr) bool {
	w.Lookups++
	w.tick++
	tag := pwcTag(level, key)
	for i, tg := range w.tags {
		if tg == tag {
			w.lrus[i] = w.tick
			w.Hits++
			return true
		}
	}
	return false
}

// insert installs (level, key) over the first invalid entry, else the least
// recently used one.
func (w *WalkCache) insert(level int, key mem.Addr) {
	if len(w.tags) == 0 {
		return
	}
	w.tick++
	victim := 0
	for i, tg := range w.tags {
		if tg == 0 {
			victim = i
			break
		}
		if w.lrus[i] < w.lrus[victim] {
			victim = i
		}
	}
	w.tags[victim] = pwcTag(level, key)
	w.lrus[victim] = w.tick
}

// MMUConfig sets the TLB hierarchy geometry and latencies (Table I).
type MMUConfig struct {
	L1Entries, L1Ways int
	L2Entries, L2Ways int
	L2Latency         mem.Cycle
	WalkCacheEntries  int

	// TLBPrefetch enables a simple distance-1 TLB prefetcher: after a page
	// walk for page P, the translations of the neighbouring pages are walked
	// in the background (consuming real walk traffic) and installed in the
	// L2 TLB. This is the synergistic TLB prefetcher the paper's footnote 3
	// names as a promising direction for improving the timeliness of
	// page-crossing prefetching.
	TLBPrefetch bool
}

// DefaultMMUConfig mirrors Table I: 64-entry 4-way L1 DTLB (1 cycle, folded
// into the L1D access), 1536-entry 12-way L2 TLB at 8 cycles.
func DefaultMMUConfig() MMUConfig {
	return MMUConfig{
		L1Entries: 64, L1Ways: 4,
		L2Entries: 1536, L2Ways: 12,
		L2Latency:        8,
		WalkCacheEntries: 32,
	}
}

// walkShift[i] is the right-shift that produces the walk-cache key for level
// i: the virtual-address prefix translated by that level's entry.
var walkShift = [numLevels]uint{39, 30, 21, 12}

// MMU models one core's translation machinery: L1 DTLB, L2 TLB, MMU caches,
// and a page-table walker whose references are injected into the cache
// hierarchy through the walk port.
type MMU struct {
	space *AddressSpace
	l1    *TLB
	l2    *TLB
	pwc   *WalkCache
	cfg   MMUConfig
	core  int

	// walkPort receives the walker's PageWalk references; in the assembled
	// system it is the L1D, so walks contend for the same cache hierarchy
	// as demand traffic (L1D→L2→LLC→DRAM).
	walkPort mem.Port

	// walkArena supplies scratch requests for walker references: each
	// reference's Access completes before the next is issued, so a small ring
	// suffices. The assembled system shares one arena across all its MMUs
	// (walk scratch is per-simulation state, like the allocator); unit tests
	// that construct an MMU directly get a private arena by default.
	walkArena *mem.RequestArena

	Walks    uint64
	WalkRefs uint64
	// WalksBy breaks Walks down by the resolved page's size, indexed by
	// mem.PageSize (telemetry: walk traffic by page size).
	WalksBy [mem.NumPageSizes]uint64
	// TLBPrefetches counts background translations installed by the TLB
	// prefetcher.
	TLBPrefetches uint64
}

// NewMMU builds an MMU over space for the given core. walkPort may be nil, in
// which case walks cost zero memory time (useful in unit tests).
func NewMMU(space *AddressSpace, cfg MMUConfig, core int, walkPort mem.Port) *MMU {
	return &MMU{
		space:     space,
		l1:        NewTLB(cfg.L1Entries, cfg.L1Ways),
		l2:        NewTLB(cfg.L2Entries, cfg.L2Ways),
		pwc:       NewWalkCache(cfg.WalkCacheEntries),
		cfg:       cfg,
		core:      core,
		walkPort:  walkPort,
		walkArena: mem.NewRequestArena(0),
	}
}

// Release returns both TLBs' storage for the next MMU of the same geometry
// (TLB.Release). The MMU must not translate afterwards: Translate and the
// resident probes panic. Walks, WalkRefs, WalksBy, TLBPrefetches and the
// TLBs' counters stay readable. The address space is released on its own.
func (m *MMU) Release() {
	m.l1.Release()
	m.l2.Release()
}

// SetWalkArena replaces the MMU's private walk-scratch arena; the assembled
// system calls it so all cores draw from one per-simulation arena.
func (m *MMU) SetWalkArena(a *mem.RequestArena) { m.walkArena = a }

// L1 exposes the first-level TLB for statistics.
func (m *MMU) L1() *TLB { return m.l1 }

// L2 exposes the second-level TLB for statistics.
func (m *MMU) L2() *TLB { return m.l2 }

// Translate resolves v at cycle `at` and returns the translation plus the
// cycle at which it is available. The L1 TLB lookup is folded into the cache
// access (VIPT first-level cache); misses add L2 TLB latency and, on an L2
// miss, a full page walk through the memory hierarchy.
func (m *MMU) Translate(v mem.Addr, at mem.Cycle) (Translation, mem.Cycle) {
	if tr, ok := m.l1.Lookup(v); ok {
		return tr, at
	}
	if tr, ok := m.l2.Lookup(v); ok {
		m.l1.Insert(v, tr)
		return tr, at + m.cfg.L2Latency
	}
	walk, tr := m.space.WalkFor(v)
	m.Walks++
	m.WalksBy[tr.Size]++
	done := at + m.cfg.L2Latency // the L2 TLB miss is discovered first
	for i, ref := range walk.Refs[:walk.Levels] {
		last := i == walk.Levels-1
		// Interior levels may be served by the MMU caches; the leaf entry is
		// always fetched from the memory hierarchy.
		key := v >> walkShift[i]
		if !last && m.pwc.contains(i, key) {
			continue
		}
		if !last {
			m.pwc.insert(i, key)
		}
		m.WalkRefs++
		if m.walkPort != nil {
			req := m.walkArena.Get()
			req.PAddr = mem.BlockAlign(ref)
			req.Type = mem.PageWalk
			req.Core = m.core
			// Page-table nodes live in 4KB frames.
			req.PageSize = mem.Page4K
			req.PageSizeKnown = true
			done = m.walkPort.Access(req, done)
		}
	}
	m.l2.Insert(v, tr)
	m.l1.Insert(v, tr)
	if m.cfg.TLBPrefetch {
		m.prefetchTranslation(v+tr.Size.Bytes(), done)
		if v >= tr.Size.Bytes() {
			m.prefetchTranslation(v-tr.Size.Bytes(), done)
		}
	}
	return tr, done
}

// prefetchTranslation walks the page containing v in the background and
// installs its translation in the L2 TLB. Speculation never creates
// mappings: unmapped neighbours are skipped.
func (m *MMU) prefetchTranslation(v mem.Addr, at mem.Cycle) {
	if _, hit := m.l2.Lookup(v); hit {
		return
	}
	walk, ok := m.space.PageTable().Walk(v)
	if !ok {
		return
	}
	m.TLBPrefetches++
	t := at
	for i, ref := range walk.Refs[:walk.Levels] {
		last := i == walk.Levels-1
		key := v >> walkShift[i]
		if !last && m.pwc.contains(i, key) {
			continue
		}
		m.WalkRefs++
		if m.walkPort != nil {
			req := m.walkArena.Get()
			req.PAddr = mem.BlockAlign(ref)
			req.Type = mem.PageWalk
			req.Core = m.core
			req.PageSize = mem.Page4K
			req.PageSizeKnown = true
			t = m.walkPort.Access(req, t)
		}
	}
	off := v & (walk.PTE.Size.Bytes() - 1)
	m.l2.Insert(v, Translation{PAddr: walk.PTE.Frame + off, Size: walk.PTE.Size})
}

// Resident reports whether the translation for v is present in either TLB
// level, without perturbing hit statistics or LRU state beyond a probe. It is
// used by the IPCP++ variant, which crosses 4KB boundaries only when the
// target page's translation is TLB-resident.
func (m *MMU) Resident(v mem.Addr) bool {
	_, ok := m.ResidentTranslate(v)
	return ok
}

// ResidentTranslate returns the translation for v when it is present in
// either TLB level, probing without perturbing hit statistics. It backs
// TLB-gated virtual-address prefetching (the engine's Translator hook): a
// resident translation costs only the probe, and a non-resident one must
// never trigger a speculative page walk.
func (m *MMU) ResidentTranslate(v mem.Addr) (Translation, bool) {
	h1, mi1, by1 := m.l1.Hits, m.l1.Misses, m.l1.HitsBy
	h2, mi2, by2 := m.l2.Hits, m.l2.Misses, m.l2.HitsBy
	tr, ok := m.l1.Lookup(v)
	if !ok {
		tr, ok = m.l2.Lookup(v)
	}
	m.l1.Hits, m.l1.Misses, m.l1.HitsBy = h1, mi1, by1
	m.l2.Hits, m.l2.Misses, m.l2.HitsBy = h2, mi2, by2
	return tr, ok
}
