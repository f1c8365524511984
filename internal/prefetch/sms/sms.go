// Package sms implements Spatial Memory Streaming (Somogyi et al., ISCA
// 2006): the prefetcher records, per spatial region, the bit pattern of
// blocks touched during a "generation" (from the first access to the region
// until it goes cold), stores the pattern in a history table indexed by the
// trigger's PC⊕offset, and on the next trigger with the same signature
// prefetches the whole recorded footprint at once.
//
// SMS's regions are its own spatial granularity (a few KB) and its history
// table is PC-indexed, not page-number-indexed, so — like BOP — its PSA-2MB
// variant degenerates to PSA; regionBits is accepted and ignored.
package sms

import (
	"repro/internal/mem"
	"repro/internal/prefetch"
	"repro/internal/slabpool"
)

// Config sizes SMS.
type Config struct {
	RegionBlocks int // blocks per spatial region (32 → 2KB regions)
	AGTEntries   int // active generation table entries (32)
	PHTEntries   int // pattern history table entries (1024)
	GenLength    int // accesses after which a generation is committed (24)
	MaxActive    int // live generations before the LRU one is committed (8)
}

// DefaultConfig returns the configuration used in the evaluation.
func DefaultConfig() Config {
	return Config{RegionBlocks: 32, AGTEntries: 32, PHTEntries: 1024, GenLength: 24, MaxActive: 8}
}

// Scale returns a copy with table capacities multiplied by k (ISO storage).
func (c Config) Scale(k int) Config {
	c.AGTEntries *= k
	c.PHTEntries *= k
	return c
}

// agtEntry tracks one in-flight generation.
type agtEntry struct {
	region  mem.Addr
	sig     uint32
	pattern uint64 // bit per block in the region
	base    int    // trigger offset within region
	count   int
	valid   bool
	lru     uint64
}

type phtEntry struct {
	sig     uint32
	pattern uint64
	valid   bool
	lru     uint64
}

// Prefetcher is an SMS instance.
type Prefetcher struct {
	cfg Config
	// slab owns agt and pht; Release hands it to the next instance of the
	// same shape.
	slab *slab
	agt  []agtEntry
	pht  []phtEntry
	tick uint64
}

// New creates an SMS prefetcher; regionBits is ignored (no page-indexed
// state).
func New(cfg Config, _ uint) *Prefetcher {
	if cfg.RegionBlocks > 64 {
		panic("sms: RegionBlocks must fit a 64-bit pattern")
	}
	s := slabs.Pool(slabKey(cfg)).Get()
	if s == nil {
		s = &slab{agt: make([]agtEntry, cfg.AGTEntries), pht: make([]phtEntry, cfg.PHTEntries)}
	}
	return &Prefetcher{cfg: cfg, slab: s, agt: s.agt, pht: s.pht}
}

// slab is an instance's tables. A slab outlives its instance: Release resets
// it and hands it to the next instance with the same table sizes.
type slab struct {
	agt []agtEntry
	pht []phtEntry
}

// slabs pools tables by slabKey.
var slabs slabpool.Table[slab]

// slabKey is the shape of cfg's tables.
func slabKey(cfg Config) uint64 { return slabpool.Key4(cfg.AGTEntries, cfg.PHTEntries, 0, 0) }

// Release implements prefetch.Prefetcher: it clears the tables, which is
// cheaper than testing each entry for use, and offers them to the next
// instance of the same shape.
func (p *Prefetcher) Release() {
	s := p.slab
	if s == nil {
		return
	}
	p.slab, p.agt, p.pht = nil, nil, nil
	if pool := slabs.Pool(slabKey(p.cfg)); pool != nil {
		clear(s.agt)
		clear(s.pht)
		pool.Put(s)
	}
}

// Factory adapts New to prefetch.Factory.
func Factory(cfg Config) prefetch.Factory {
	return func(regionBits uint) prefetch.Prefetcher { return New(cfg, regionBits) }
}

func (p *Prefetcher) regionOf(a mem.Addr) (region mem.Addr, off int) {
	blk := mem.BlockNumber(a)
	return blk / mem.Addr(p.cfg.RegionBlocks), int(blk % mem.Addr(p.cfg.RegionBlocks))
}

// signature combines the trigger PC and its offset within the region, the
// original design's generation key.
func signature(pc mem.Addr, off int) uint32 {
	h := uint64(pc)<<6 ^ uint64(off)
	h *= 0x9e3779b97f4a7c15
	return uint32(h >> 32)
}

func (p *Prefetcher) agtLookup(region mem.Addr) *agtEntry {
	for i := range p.agt {
		if p.agt[i].valid && p.agt[i].region == region {
			p.tick++
			p.agt[i].lru = p.tick
			return &p.agt[i]
		}
	}
	return nil
}

// commit stores a finished generation's pattern into the PHT.
func (p *Prefetcher) commit(e *agtEntry) {
	if e.pattern == 0 || e.count < 2 {
		e.valid = false
		return
	}
	slot := &p.pht[e.sig%uint32(p.cfg.PHTEntries)]
	p.tick++
	*slot = phtEntry{sig: e.sig, pattern: e.pattern, valid: true, lru: p.tick}
	e.valid = false
}

// Train implements prefetch.Prefetcher.
func (p *Prefetcher) Train(ctx prefetch.Context) { p.train(ctx, nil) }

func (p *Prefetcher) train(ctx prefetch.Context, issue func(prefetch.Candidate)) {
	if !ctx.Type.IsDemand() {
		return
	}
	region, off := p.regionOf(ctx.Addr)
	if e := p.agtLookup(region); e != nil {
		// Record the access into the live generation.
		e.pattern |= 1 << uint(off)
		e.count++
		if e.count >= p.cfg.GenLength {
			p.commit(e)
		}
		return
	}

	// Trigger access: start a new generation. A generation ends — and its
	// pattern commits — when the table exceeds its active window or when a
	// victim must be evicted, mirroring the original's end-of-generation on
	// region cooldown.
	live := 0
	var lruLive *agtEntry
	victim := &p.agt[0]
	haveInvalid := false
	for i := range p.agt {
		e := &p.agt[i]
		if !e.valid {
			if !haveInvalid {
				victim = e
				haveInvalid = true
			}
			continue
		}
		live++
		if lruLive == nil || e.lru < lruLive.lru {
			lruLive = e
		}
	}
	if live >= p.cfg.MaxActive && lruLive != nil {
		p.commit(lruLive)
		if !haveInvalid {
			victim = lruLive
		}
	} else if !haveInvalid {
		p.commit(lruLive)
		victim = lruLive
	}
	sig := signature(ctx.PC, off)
	p.tick++
	*victim = agtEntry{
		region: region, sig: sig, pattern: 1 << uint(off),
		base: off, count: 1, valid: true, lru: p.tick,
	}

	// Streaming: if the PHT knows this signature, prefetch the recorded
	// footprint relative to the region base.
	if issue == nil {
		return
	}
	slot := &p.pht[sig%uint32(p.cfg.PHTEntries)]
	if !slot.valid || slot.sig != sig {
		return
	}
	regionBase := region * mem.Addr(p.cfg.RegionBlocks) * mem.BlockSize
	for b := 0; b < p.cfg.RegionBlocks; b++ {
		if slot.pattern&(1<<uint(b)) == 0 || b == off {
			continue
		}
		cand := regionBase + mem.Addr(b)*mem.BlockSize
		if !prefetch.InGenLimit(ctx.Addr, cand) {
			continue
		}
		issue(prefetch.Candidate{Addr: cand, FillL2: true})
	}
}

// Operate implements prefetch.Prefetcher.
func (p *Prefetcher) Operate(ctx prefetch.Context, issue func(prefetch.Candidate)) {
	p.train(ctx, issue)
}
