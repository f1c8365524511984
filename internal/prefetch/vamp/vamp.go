// Package vamp implements VA-AMPM-lite: Access Map Pattern Matching over
// *virtual* addresses, after the ChampSim va_ampm_lite reference design. Each
// tracked virtual region keeps a bitmap of demanded blocks; on an access the
// prefetcher scans stride candidates k where the blocks at −k and −2k were
// demanded and proposes +k — with the lookups crossing region boundaries, so
// a stride marches straight through 4KB virtual pages.
//
// The scan is word-parallel: it reads the five aligned 64-block words of
// access map around the trigger (one region-table lookup each) and tests all
// distances at once with bit reversal, odd-bit compression and masks, one
// bit per distance. That caps MaxDistance at 64; the result is the same
// candidate sequence as testing each distance in turn.
//
// Candidates are proposed as virtual addresses (Candidate.Virtual): the
// engine translates them before issue, gated on the target page's
// translation being TLB-resident, which is the virtual-side answer to the
// 4KB boundary problem that the paper's PPM answers physically. The
// prefetcher keeps no prefetch map — the engine's Contains dedup fills that
// role — so its state is a pure function of the demand virtual-address
// stream, which the clamp-equivalence differential test relies on.
package vamp

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
	"repro/internal/prefetch"
	"repro/internal/slabpool"
)

// Config sizes the access-map tracker.
type Config struct {
	// Regions is the number of tracked virtual regions, a power of two
	// (hash-indexed, direct-mapped: a colliding region replaces the old map).
	Regions int
	// MaxDistance is the largest stride, in blocks, the pattern scan covers
	// (1..64).
	MaxDistance int
	// Degree bounds candidates proposed per trigger access (at least 1).
	Degree int
	// Clamp4K restricts candidates to the trigger's 4KB virtual page. A
	// suppressed crossing candidate still consumes degree — exactly what
	// happens to the unclamped prefetcher under the engine's Original
	// boundary policy, where the crossing proposal spends the degree budget
	// and is then discarded. The clamped prefetcher therefore issues
	// byte-identically to unclamped-under-Original — the invariant behind
	// the clamp-equivalence differential test.
	Clamp4K bool
}

// DefaultConfig mirrors the reference design scaled to this simulator.
func DefaultConfig() Config {
	return Config{Regions: 128, MaxDistance: 64, Degree: 2}
}

// Scale returns a copy with the region count multiplied by k (ISO storage).
func (c Config) Scale(k int) Config {
	c.Regions *= k
	return c
}

// Prefetcher is a VA-AMPM-lite instance. The region table is direct-mapped
// by a hash of the region number, so each of the scan's word reads is one
// O(1) lookup.
type Prefetcher struct {
	cfg        Config
	regionBits uint
	words      int // bitmap words per region
	// slab owns tags and bits; Release hands it to the next instance of the
	// same shape.
	slab *slab
	tags []uint64 // regionNumber<<1|1, 0 = invalid
	bits []uint64 // Regions × words access bitmaps
	// slotMask is Regions-1: Regions is a power of two.
	slotMask uint64
	// distMask has one bit per scanned distance: bit k-1 for k ≤ MaxDistance.
	distMask uint64
}

// New creates a prefetcher tracking virtual regions of 2^regionBits bytes.
func New(cfg Config, regionBits uint) *Prefetcher {
	if regionBits < mem.PageBits4K || regionBits > mem.PageBits2M {
		panic("vamp: regionBits outside [12, 21]")
	}
	if cfg.MaxDistance < 1 || cfg.MaxDistance > 64 {
		panic(fmt.Sprintf("vamp: MaxDistance %d outside 1..64", cfg.MaxDistance))
	}
	if cfg.Degree < 1 {
		panic(fmt.Sprintf("vamp: Degree %d below 1", cfg.Degree))
	}
	if bits.OnesCount(uint(cfg.Regions)) != 1 {
		panic(fmt.Sprintf("vamp: Regions %d is not a power of two", cfg.Regions))
	}
	blocks := 1 << (regionBits - mem.BlockBits)
	words := (blocks + 63) / 64
	s := slabs.Pool(slabKey(cfg, regionBits)).Get()
	if s == nil {
		s = &slab{tags: make([]uint64, cfg.Regions), bits: make([]uint64, cfg.Regions*words)}
	}
	return &Prefetcher{
		cfg:        cfg,
		regionBits: regionBits,
		words:      words,
		slab:       s,
		tags:       s.tags,
		bits:       s.bits,
		slotMask:   uint64(cfg.Regions - 1),
		distMask:   lowBits(uint(cfg.MaxDistance)),
	}
}

// slab is an instance's region table: the tags and the access bitmaps. A
// slab outlives its instance: Release resets it and hands it to the next
// instance with the same region count and region size. A 2MB-region table
// holds 512 bitmap words per region, half a megabyte at the default 128
// regions, most of which a short run never touches.
type slab struct {
	tags []uint64
	bits []uint64
}

// slabs pools region tables by slabKey.
var slabs slabpool.Table[slab]

// slabKey is the shape of a region table: the region count and size.
func slabKey(cfg Config, regionBits uint) uint64 {
	return slabpool.Key4(cfg.Regions, int(regionBits), 0, 0)
}

// reset restores the construction state, touching what a run used: only a
// region with a tag has a bitmap that is not all zero (mark clears a slot's
// bitmap when it changes the slot's tag).
func (s *slab) reset(words int) {
	for i, tag := range s.tags {
		if tag != 0 {
			clear(s.bits[i*words : (i+1)*words])
			s.tags[i] = 0
		}
	}
}

// Release implements prefetch.Prefetcher: it resets the region table and
// offers it to the next instance of the same shape.
func (p *Prefetcher) Release() {
	s := p.slab
	if s == nil {
		return
	}
	p.slab, p.tags, p.bits = nil, nil, nil
	if pool := slabs.Pool(slabKey(p.cfg, p.regionBits)); pool != nil {
		s.reset(p.words)
		pool.Put(s)
	}
}

// Factory adapts New to prefetch.Factory.
func Factory(cfg Config) prefetch.Factory {
	return func(regionBits uint) prefetch.Prefetcher { return New(cfg, regionBits) }
}

func (p *Prefetcher) slot(region uint64) int {
	return int(region * 0x9e3779b97f4a7c15 & p.slotMask)
}

// chunk returns the access-map word of the aligned 64-block chunk c (block
// numbers c·64 .. c·64+63), or 0 when its region is not tracked. Chunks lie
// inside one region because regions hold at least 64 blocks.
func (p *Prefetcher) chunk(c uint64) uint64 {
	region := c >> (p.regionBits - mem.BlockBits - 6)
	s := p.slot(region)
	if p.tags[s] != region<<1|1 {
		return 0
	}
	return p.bits[s*p.words+int(c&uint64(p.words-1))]
}

// mark records the demand access at virtual address v, evicting a colliding
// region's map if necessary.
func (p *Prefetcher) mark(v mem.Addr) {
	region := uint64(v) >> p.regionBits
	s := p.slot(region)
	tag := region<<1 | 1
	base := s * p.words
	if p.tags[s] != tag {
		for i := base; i < base+p.words; i++ {
			p.bits[i] = 0
		}
		p.tags[s] = tag
	}
	block := uint64(v>>mem.BlockBits) & (uint64(p.words)*64 - 1)
	p.bits[base+int(block>>6)] |= 1 << (block & 63)
}

// vaOf returns the block-aligned virtual trigger address, falling back to
// the physical address when the harness provides no translation (identity
// mapping assumption, matching the engine's own fallback).
func vaOf(ctx prefetch.Context) mem.Addr {
	va := ctx.VAddr
	if va == 0 {
		va = ctx.Addr
	}
	return mem.BlockAlign(va)
}

// Train implements prefetch.Prefetcher: record the access, propose nothing.
func (p *Prefetcher) Train(ctx prefetch.Context) {
	if !ctx.Type.IsDemand() {
		return
	}
	p.mark(vaOf(ctx))
}

// Operate implements prefetch.Prefetcher: record the access, then scan
// strides outward; candidate va+d qualifies when va−d and va−2d were both
// demanded and va+d was not. Distances go in increasing k, +k before −k.
func (p *Prefetcher) Operate(ctx prefetch.Context, issue func(prefetch.Candidate)) {
	if !ctx.Type.IsDemand() {
		return
	}
	va := vaOf(ctx)
	p.mark(va)

	// Access bits of blocks b-128 .. b+128, as the five chunk words from
	// b's chunk-2 to chunk+2 (w[5] stays 0: it is only ever shifted in by
	// 64). Block numbers wrap modulo 2^58 exactly as va±step wraps.
	b := uint64(va) >> mem.BlockBits
	const chunkMask = 1<<(64-mem.BlockBits-6) - 1
	var w [6]uint64
	c := b>>6 - 2
	for i := 0; i < 5; i++ {
		w[i] = p.chunk((c + uint64(i)) & chunkMask)
	}
	// at(i, off) is the 64 access bits starting off blocks into w[i].
	at := func(i int, off uint) uint64 { return w[i]>>off | w[i+1]<<(64-off) }
	o := uint(b & 63)
	hiI, hiOff := 2+int(o+1)>>6, (o+1)&63

	// Bit k-1 of each mask speaks of distance k.
	back1 := bits.Reverse64(at(1, o))           // b-k demanded
	back2 := bits.Reverse64(at(0, o))           // b-64-k demanded
	fwd1 := at(hiI, hiOff)                      // b+k demanded
	fwd2 := at(hiI+1, hiOff)                    // b+64+k demanded
	back := oddBits(back1) | oddBits(back2)<<32 // b-2k demanded
	fwd := oddBits(fwd1) | oddBits(fwd2)<<32    // b+2k demanded

	// The candidate must stay in the trigger's 2MB page: o2+k ≤ 32767 going
	// up, k ≤ o2 going down.
	o2 := uint(b & (mem.PageSize2M/mem.BlockSize - 1))
	plus := back1 & back &^ fwd1 & p.distMask & lowBits(mem.PageSize2M/mem.BlockSize-1-o2)
	minus := fwd1 & fwd &^ back1 & p.distMask & lowBits(o2)

	// Clamp4K suppresses the candidates that leave the trigger's 4KB page,
	// which still spend degree (see Config).
	keepPlus, keepMinus := ^uint64(0), ^uint64(0)
	if p.cfg.Clamp4K {
		keepPlus, keepMinus = lowBits(63-o), lowBits(o)
	}
	issued := 0
	for m := plus | minus; m != 0; m &= m - 1 {
		i := uint(bits.TrailingZeros64(m))
		step := mem.Addr(i+1) * mem.BlockSize
		if plus>>i&1 != 0 {
			if keepPlus>>i&1 != 0 {
				issue(prefetch.Candidate{Addr: va + step, FillL2: true, Virtual: true})
			}
			if issued++; issued >= p.cfg.Degree {
				return
			}
		}
		if minus>>i&1 != 0 {
			if keepMinus>>i&1 != 0 {
				issue(prefetch.Candidate{Addr: va - step, FillL2: true, Virtual: true})
			}
			if issued++; issued >= p.cfg.Degree {
				return
			}
		}
	}
}

// lowBits returns a mask of the n lowest bits: all 64 for n ≥ 64, where Go's
// shift yields 0 and the subtraction wraps.
func lowBits(n uint) uint64 { return 1<<n - 1 }

// oddBits compresses the 32 odd-numbered bits of x into the low half: bit
// 2j+1 of x becomes bit j.
func oddBits(x uint64) uint64 {
	x = x >> 1 & 0x5555555555555555
	x = (x | x>>1) & 0x3333333333333333
	x = (x | x>>2) & 0x0f0f0f0f0f0f0f0f
	x = (x | x>>4) & 0x00ff00ff00ff00ff
	x = (x | x>>8) & 0x0000ffff0000ffff
	return (x | x>>16) & 0x00000000ffffffff
}
