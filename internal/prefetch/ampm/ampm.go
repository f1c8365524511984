// Package ampm implements the Access Map Pattern Matching prefetcher (Ishii
// et al., ICS 2009): each tracked memory zone keeps a 2-bit state per cache
// block (init / accessed / prefetched); on every access the prefetcher scans
// the map for stride candidates k where blocks at −k and −2k were already
// accessed, and prefetches +k.
//
// AMPM's zones are indexed by the page number, so — unlike BOP or SMS — its
// PSA-2MB variant is a real design change: 2MB zones track 32768 blocks and
// can match strides far beyond 64 blocks. This is an extension beyond the
// paper's four evaluated prefetchers, demonstrating that the PPM machinery
// accepts further spatial designs unmodified.
package ampm

import (
	"repro/internal/mem"
	"repro/internal/prefetch"
	"repro/internal/slabpool"
)

// Block states in the access map.
const (
	stateInit uint8 = iota
	stateAccess
	statePrefetch
)

// Config sizes AMPM.
type Config struct {
	Zones     int // tracked zones (64)
	MaxStride int // largest stride scanned (32)
	Degree    int // prefetches issued per access (2)
}

// DefaultConfig returns the configuration used in the evaluation.
func DefaultConfig() Config { return Config{Zones: 64, MaxStride: 32, Degree: 2} }

// Scale returns a copy with the zone count multiplied by k (ISO storage).
func (c Config) Scale(k int) Config {
	c.Zones *= k
	return c
}

type zone struct {
	tag   mem.Addr
	valid bool
	lru   uint64
}

// Prefetcher is an AMPM instance.
type Prefetcher struct {
	cfg        Config
	regionBits uint
	// slab owns zones and maps; Release hands it to the next instance of
	// the same shape.
	slab  *slab
	zones []zone
	// maps holds the zones' access maps back to back: zone i's block states
	// are maps[i*n : (i+1)*n], n = blocksPerZone. Zones come into use in
	// index order (the victim scan takes the first invalid zone), so the
	// maps grow, doubling, only as far as the zones a run has touched: a
	// 2MB-zone instance that sees a few zones never holds 64 of 32 KB each.
	maps []uint8
	tick uint64
}

// New creates an AMPM prefetcher tracking zones of 2^regionBits bytes.
func New(cfg Config, regionBits uint) *Prefetcher {
	s := slabs.Pool(slabKey(cfg, regionBits)).Get()
	if s == nil {
		s = &slab{zones: make([]zone, cfg.Zones)}
	}
	return &Prefetcher{cfg: cfg, regionBits: regionBits, slab: s, zones: s.zones, maps: s.maps}
}

// slab is an instance's tables: the zones and the access maps as far as an
// instance grew them. A slab outlives its instance: Release resets it and
// hands it to the next instance with the same zone count and zone size,
// which grows the maps only past what its predecessors used.
type slab struct {
	zones []zone
	maps  []uint8 // length zero; the capacity is all-init
}

// slabs pools tables by slabKey.
var slabs slabpool.Table[slab]

// slabKey is the shape of an instance's tables: the zone count and size.
func slabKey(cfg Config, regionBits uint) uint64 {
	return slabpool.Key4(cfg.Zones, int(regionBits), 0, 0)
}

// Release implements prefetch.Prefetcher: it resets the tables, touching
// what the run used — the zones, which come into use in index order, as far
// as the maps grew — and offers them to the next instance of the same shape.
func (p *Prefetcher) Release() {
	s := p.slab
	if s == nil {
		return
	}
	maps := p.maps
	p.slab, p.zones, p.maps = nil, nil, nil
	if pool := slabs.Pool(slabKey(p.cfg, p.regionBits)); pool != nil {
		clear(s.zones[:len(maps)/p.blocksPerZone()])
		clear(maps)
		s.maps = maps[:0]
		pool.Put(s)
	}
}

// Factory adapts New to prefetch.Factory.
func Factory(cfg Config) prefetch.Factory {
	return func(regionBits uint) prefetch.Prefetcher { return New(cfg, regionBits) }
}

func (p *Prefetcher) blocksPerZone() int { return 1 << (p.regionBits - mem.BlockBits) }

// zoneFor returns the access map of a's zone, claiming the LRU zone (reset
// to all-init) when a's zone is not tracked.
func (p *Prefetcher) zoneFor(a mem.Addr) []uint8 {
	tag := a >> p.regionBits
	n := p.blocksPerZone()
	p.tick++
	for i := range p.zones {
		z := &p.zones[i]
		if z.valid && z.tag == tag {
			z.lru = p.tick
			return p.maps[i*n : (i+1)*n]
		}
	}
	vi := 0
	for i := range p.zones {
		z := &p.zones[i]
		if !z.valid {
			vi = i
			break
		}
		if z.lru < p.zones[vi].lru {
			vi = i
		}
	}
	p.zones[vi] = zone{tag: tag, valid: true, lru: p.tick}
	end := (vi + 1) * n
	if end <= len(p.maps) {
		m := p.maps[end-n : end]
		clear(m) // stateInit is 0
		return m
	}
	// First use of zone vi, the next one past the maps' end: the window
	// beyond len is all-init, never written since it was allocated or since
	// Release cleared it.
	if end > cap(p.maps) {
		grown := make([]uint8, len(p.maps), min(max(2*cap(p.maps), n), len(p.zones)*n))
		copy(grown, p.maps)
		p.maps = grown
	}
	p.maps = p.maps[:end]
	return p.maps[end-n : end]
}

// Train implements prefetch.Prefetcher.
func (p *Prefetcher) Train(ctx prefetch.Context) {
	if !ctx.Type.IsDemand() {
		return
	}
	m := p.zoneFor(ctx.Addr)
	off := int((ctx.Addr >> mem.BlockBits) & mem.Addr(p.blocksPerZone()-1))
	m[off] = stateAccess
}

// Operate implements prefetch.Prefetcher.
func (p *Prefetcher) Operate(ctx prefetch.Context, issue func(prefetch.Candidate)) {
	if !ctx.Type.IsDemand() {
		return
	}
	m := p.zoneFor(ctx.Addr)
	n := p.blocksPerZone()
	off := int((ctx.Addr >> mem.BlockBits) & mem.Addr(n-1))
	m[off] = stateAccess

	zoneBase := ctx.Addr &^ (1<<p.regionBits - 1)
	issued := 0
	try := func(k int) bool {
		// Pattern match: if −k and −2k were accessed, +k is a candidate.
		a, b, t := off-k, off-2*k, off+k
		if a < 0 || a >= n || b < 0 || b >= n || t < 0 || t >= n {
			return false
		}
		if m[a] != stateAccess || m[b] != stateAccess {
			return false
		}
		if m[t] != stateInit {
			return false // already accessed or prefetched
		}
		cand := zoneBase + mem.Addr(t)*mem.BlockSize
		if !prefetch.InGenLimit(ctx.Addr, cand) {
			return false
		}
		m[t] = statePrefetch
		issue(prefetch.Candidate{Addr: cand, FillL2: true})
		issued++
		return issued >= p.cfg.Degree
	}
	for k := 1; k <= p.cfg.MaxStride; k++ {
		if try(k) || try(-k) {
			return
		}
	}
}
