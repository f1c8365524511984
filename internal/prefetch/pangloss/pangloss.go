// Package pangloss implements a Markov delta-chain prefetcher in the style
// of Pangloss (Michelogiannakis et al., 3rd Data Prefetching Championship):
// a delta cache records, per observed block delta, the most frequent next
// deltas under LFU replacement; a page cache records each page's last offset
// and last delta. On an access the prefetcher walks the Markov chain of
// deltas from the trigger block, proposing the strongest successors at every
// step.
//
// Deltas are learned within the prefetcher's indexing granularity
// (regionBits: 4KB pages for the original and PSA variants, 2MB for PSA-2MB)
// but applied in absolute block space, so a chain walk naturally carries a
// learned pattern across 4KB lines inside the 2MB generation region — the
// crossing opportunity the engine's boundary policy then grants or denies
// per variant. The prefetcher's state is a pure function of the demand
// stream (it ignores hit/miss, timing, and prefetch feedback), which the
// differential tests rely on.
package pangloss

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
	"repro/internal/prefetch"
	"repro/internal/slabpool"
)

// Config sizes the Pangloss tables.
type Config struct {
	// MaxDelta bounds the tracked block-delta magnitude: transitions with
	// |delta| > MaxDelta reset the page's chain instead of training.
	MaxDelta int
	// DeltaWays is the number of successor slots per delta row; rows are
	// LFU-evicted (hit increments a saturating counter, miss replaces the
	// way with the smallest counter).
	DeltaWays int
	// PageSets and PageWays size the set-associative page cache holding each
	// tracked page's last offset and last delta; PageSets is a power of two.
	PageSets, PageWays int
	// Degree bounds candidates proposed per trigger access.
	Degree int
	// MaxDepth bounds the Markov chain walk depth.
	MaxDepth int
}

// DefaultConfig mirrors the championship configuration scaled to this
// simulator: 129 delta rows × 8 ways, a 64×8 page cache, and an 8-deep
// walk proposing at most 8 blocks.
func DefaultConfig() Config {
	return Config{
		MaxDelta:  64,
		DeltaWays: 8,
		PageSets:  64,
		PageWays:  8,
		Degree:    8,
		MaxDepth:  8,
	}
}

// Scale returns a copy with the page cache scaled by k (ISO storage).
func (c Config) Scale(k int) Config {
	c.PageSets *= k
	return c
}

// counterMax saturates the LFU counters; on saturation the whole row is
// halved, aging stale transitions exactly as Pangloss does.
const counterMax = 1 << 12

// Prefetcher is a Pangloss instance. All tables are parallel arrays sized at
// construction; steady-state operation allocates nothing.
type Prefetcher struct {
	cfg        Config
	regionBits uint

	// slab owns the tables below; Release hands it to the next instance of
	// the same shape.
	slab *slab

	// Delta cache: rows indexed by normalized previous delta
	// (delta + MaxDelta), ways holding (successor delta, LFU count) pairs.
	// Row MaxDelta — normalized delta zero — is the entry row: a page's
	// first observed delta trains there, since a zero delta never occurs as
	// a real transition (same-block re-accesses are skipped).
	dNext  []int32
	dCount []uint32

	// Page cache: sets × ways parallel arrays. pTag is pageNumber<<1|1 with
	// 0 as the invalid sentinel.
	pTag   []uint64
	pOff   []int32
	pDelta []int32
	pLRU   []uint64
	tick   uint64

	// setMask is PageSets-1: PageSets is a power of two.
	setMask uint64
}

// New creates a Pangloss prefetcher indexing its page cache with pages of
// 2^regionBits bytes.
func New(cfg Config, regionBits uint) *Prefetcher {
	if regionBits < mem.PageBits4K || regionBits > mem.PageBits2M {
		panic("pangloss: regionBits outside [12, 21]")
	}
	if bits.OnesCount(uint(cfg.PageSets)) != 1 {
		panic(fmt.Sprintf("pangloss: PageSets %d is not a power of two", cfg.PageSets))
	}
	s := slabs.Pool(slabKey(cfg)).Get()
	if s == nil {
		rows, pages := 2*cfg.MaxDelta+1, cfg.PageSets*cfg.PageWays
		s = &slab{
			dNext:  make([]int32, rows*cfg.DeltaWays),
			dCount: make([]uint32, rows*cfg.DeltaWays),
			pTag:   make([]uint64, pages),
			pOff:   make([]int32, pages),
			pDelta: make([]int32, pages),
			pLRU:   make([]uint64, pages),
		}
	}
	return &Prefetcher{
		cfg:        cfg,
		regionBits: regionBits,
		slab:       s,
		dNext:      s.dNext,
		dCount:     s.dCount,
		pTag:       s.pTag,
		pOff:       s.pOff,
		pDelta:     s.pDelta,
		pLRU:       s.pLRU,
		setMask:    uint64(cfg.PageSets - 1),
	}
}

// slab is an instance's tables, the delta cache and the page cache. A slab
// outlives its instance: Release resets it and hands it to the next instance
// with the same table sizes.
type slab struct {
	dNext  []int32
	dCount []uint32
	pTag   []uint64
	pOff   []int32
	pDelta []int32
	pLRU   []uint64
}

// slabs pools tables by slabKey.
var slabs slabpool.Table[slab]

// slabKey is the shape of cfg's tables.
func slabKey(cfg Config) uint64 {
	return slabpool.Key4(cfg.MaxDelta, cfg.DeltaWays, cfg.PageSets, cfg.PageWays)
}

// reset restores the construction state, clearing the tables whole: at
// 22 KB that is cheaper than testing each entry for use.
func (s *slab) reset() {
	clear(s.dNext)
	clear(s.dCount)
	clear(s.pTag)
	clear(s.pOff)
	clear(s.pDelta)
	clear(s.pLRU)
}

// Release implements prefetch.Prefetcher: it resets the tables and offers
// them to the next instance of the same shape.
func (p *Prefetcher) Release() {
	s := p.slab
	if s == nil {
		return
	}
	p.slab, p.dNext, p.dCount, p.pTag, p.pOff, p.pDelta, p.pLRU = nil, nil, nil, nil, nil, nil, nil
	if pool := slabs.Pool(slabKey(p.cfg)); pool != nil {
		s.reset()
		pool.Put(s)
	}
}

// Factory adapts New to prefetch.Factory.
func Factory(cfg Config) prefetch.Factory {
	return func(regionBits uint) prefetch.Prefetcher { return New(cfg, regionBits) }
}

// pageSet returns the index of way 0 of the page's set.
func (p *Prefetcher) pageSet(pageNum uint64) int {
	return int(pageNum*0x9e3779b97f4a7c15&p.setMask) * p.cfg.PageWays
}

// rowBase returns the index of way 0 of a delta's row in the delta cache.
func (p *Prefetcher) rowBase(delta int32) int {
	return (int(delta) + p.cfg.MaxDelta) * p.cfg.DeltaWays
}

// updateDelta records a prev→next transition in the delta cache under LFU:
// a matching way's counter increments (halving the row at saturation), a
// miss replaces the way with the smallest counter.
func (p *Prefetcher) updateDelta(prev, next int32) {
	base := p.rowBase(prev)
	victim := base
	for i := base; i < base+p.cfg.DeltaWays; i++ {
		if p.dCount[i] == 0 {
			if p.dCount[victim] != 0 {
				victim = i
			}
			continue
		}
		if p.dNext[i] == next {
			p.dCount[i]++
			if p.dCount[i] >= counterMax {
				for j := base; j < base+p.cfg.DeltaWays; j++ {
					p.dCount[j] >>= 1
				}
			}
			return
		}
		if p.dCount[victim] != 0 && p.dCount[i] < p.dCount[victim] {
			victim = i
		}
	}
	p.dNext[victim] = next
	p.dCount[victim] = 1
}

// observe updates the page and delta caches for one demand access and
// returns the delta just taken (zero when the access starts a new chain:
// first touch of a page, a same-block re-access, or an untracked jump).
func (p *Prefetcher) observe(ctx prefetch.Context) int32 {
	pageNum := uint64(ctx.Addr) >> p.regionBits
	off := int32((ctx.Addr >> mem.BlockBits) & (1<<(p.regionBits-mem.BlockBits) - 1))
	base := p.pageSet(pageNum)
	tag := pageNum<<1 | 1
	p.tick++
	victim := base
	for i := base; i < base+p.cfg.PageWays; i++ {
		if p.pTag[i] == tag {
			p.pLRU[i] = p.tick
			delta := off - p.pOff[i]
			if delta == 0 {
				return 0 // same block: no movement, nothing to learn
			}
			p.pOff[i] = off
			if delta > int32(p.cfg.MaxDelta) || delta < -int32(p.cfg.MaxDelta) {
				p.pDelta[i] = 0 // untracked jump: restart the chain
				return 0
			}
			p.updateDelta(p.pDelta[i], delta)
			p.pDelta[i] = delta
			return delta
		}
		if p.pTag[i] == 0 {
			if p.pTag[victim] != 0 {
				victim = i
			}
			continue
		}
		if p.pTag[victim] != 0 && p.pLRU[i] < p.pLRU[victim] {
			victim = i
		}
	}
	p.pTag[victim] = tag
	p.pOff[victim] = off
	p.pDelta[victim] = 0
	p.pLRU[victim] = p.tick
	return 0
}

// Train implements prefetch.Prefetcher: update the tables without proposing.
func (p *Prefetcher) Train(ctx prefetch.Context) {
	if !ctx.Type.IsDemand() {
		return
	}
	p.observe(ctx)
}

// Operate implements prefetch.Prefetcher: train on the access, then walk the
// Markov chain from the trigger block, proposing the strongest successor
// deltas at every step and following the best one.
func (p *Prefetcher) Operate(ctx prefetch.Context, issue func(prefetch.Candidate)) {
	if !ctx.Type.IsDemand() {
		return
	}
	// A zero delta is the entry state (first touch of a page, or a reset
	// chain): the walk then starts from the entry row, whose successors are
	// the first deltas pages historically take — so a pattern keeps flowing
	// across an indexing-page change instead of stalling on it.
	cur := p.observe(ctx)
	cursor := ctx.Addr
	issued := 0
	for depth := 0; depth < p.cfg.MaxDepth && issued < p.cfg.Degree; depth++ {
		base := p.rowBase(cur)
		// Best and runner-up successors by LFU count (fixed way order breaks
		// ties deterministically), plus the row total for confidence.
		best, second := -1, -1
		var total uint32
		for i := base; i < base+p.cfg.DeltaWays; i++ {
			c := p.dCount[i]
			if c == 0 {
				continue
			}
			total += c
			switch {
			case best < 0 || c > p.dCount[best]:
				second = best
				best = i
			case second < 0 || c > p.dCount[second]:
				second = i
			}
		}
		if best < 0 {
			return
		}
		for _, w := range [2]int{best, second} {
			if w < 0 || issued >= p.cfg.Degree {
				continue
			}
			cand := cursor + mem.Addr(int64(p.dNext[w]))*mem.BlockSize
			if !prefetch.InGenLimit(ctx.Addr, cand) {
				continue
			}
			// Majority-share successors are confident enough for the L2;
			// weaker ones fill the LLC only.
			issue(prefetch.Candidate{Addr: cand, FillL2: 3*p.dCount[w] >= total})
			issued++
		}
		cursor += mem.Addr(int64(p.dNext[best])) * mem.BlockSize
		if !prefetch.InGenLimit(ctx.Addr, cursor) {
			return // the chain drifted out of the generation region
		}
		cur = p.dNext[best]
	}
}
