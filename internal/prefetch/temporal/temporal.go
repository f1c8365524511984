// Package temporal implements a GHB-style temporal (Markov) prefetcher in
// the lineage the paper contrasts spatial prefetching against (Section II-A):
// it records the global sequence of demand misses and, on a recurring miss,
// replays the misses that followed it last time.
//
// The implementation deliberately exhibits the structural trade-offs the
// paper describes: its metadata stores full block addresses (orders of
// magnitude more state than a spatial prefetcher's deltas — see
// MetadataBytes), and it is fundamentally unable to cover compulsory misses,
// because it can only replay addresses it has already seen.
package temporal

import (
	"repro/internal/mem"
	"repro/internal/prefetch"
	"repro/internal/slabpool"
)

// Config sizes the temporal prefetcher.
type Config struct {
	HistoryEntries int // global history buffer of miss addresses (8192)
	IndexEntries   int // block → last history position (4096)
	Degree         int // successors replayed per recurring miss (4)
}

// DefaultConfig returns the configuration used in comparisons.
func DefaultConfig() Config {
	return Config{HistoryEntries: 8192, IndexEntries: 4096, Degree: 4}
}

// Scale returns a copy with table capacities multiplied by k.
func (c Config) Scale(k int) Config {
	c.HistoryEntries *= k
	c.IndexEntries *= k
	return c
}

type indexEntry struct {
	block mem.Addr
	pos   uint64
	valid bool
}

// Prefetcher is a temporal prefetcher instance.
type Prefetcher struct {
	cfg Config
	// slab owns hist and index; Release hands it to the next instance of
	// the same shape.
	slab  *slab
	hist  []mem.Addr // circular buffer of miss block addresses
	head  uint64     // total misses recorded (next write position mod len)
	index []indexEntry
}

// New creates a temporal prefetcher. regionBits is ignored: temporal
// prefetching has no spatial page-indexed structures at all.
func New(cfg Config, _ uint) *Prefetcher {
	s := slabs.Pool(slabKey(cfg)).Get()
	if s == nil {
		s = &slab{hist: make([]mem.Addr, cfg.HistoryEntries), index: make([]indexEntry, cfg.IndexEntries)}
	}
	return &Prefetcher{cfg: cfg, slab: s, hist: s.hist, index: s.index}
}

// slab is an instance's tables. A slab outlives its instance: Release resets
// it and hands it to the next instance with the same table sizes.
type slab struct {
	hist  []mem.Addr
	index []indexEntry
}

// slabs pools tables by slabKey.
var slabs slabpool.Table[slab]

// slabKey is the shape of cfg's tables.
func slabKey(cfg Config) uint64 { return slabpool.Key4(cfg.HistoryEntries, cfg.IndexEntries, 0, 0) }

// Release implements prefetch.Prefetcher: it resets the tables, touching
// what the run used — the history positions it recorded, the index entries
// it validated — and offers them to the next instance of the same shape.
func (p *Prefetcher) Release() {
	s := p.slab
	if s == nil {
		return
	}
	p.slab, p.hist, p.index = nil, nil, nil
	pool := slabs.Pool(slabKey(p.cfg))
	if pool == nil {
		return
	}
	// The index entries a run validated are the slots of the blocks it
	// recorded, while the history has not wrapped.
	used := s.hist[:min(p.head, uint64(len(s.hist)))]
	if p.head <= uint64(len(s.hist)) {
		for _, block := range used {
			s.index[slotOf(block, len(s.index))] = indexEntry{}
		}
	} else {
		clear(s.index)
	}
	clear(used)
	pool.Put(s)
}

// Factory adapts New to prefetch.Factory.
func Factory(cfg Config) prefetch.Factory {
	return func(regionBits uint) prefetch.Prefetcher { return New(cfg, regionBits) }
}

// MetadataBytes returns the storage the configured tables require — the
// paper's "orders of magnitude more metadata" comparison point (full 8-byte
// addresses per history entry versus a spatial prefetcher's 7-bit deltas).
func (p *Prefetcher) MetadataBytes() int {
	return p.cfg.HistoryEntries*8 + p.cfg.IndexEntries*16
}

func (p *Prefetcher) slot(block mem.Addr) *indexEntry {
	return &p.index[slotOf(block, p.cfg.IndexEntries)]
}

// slotOf returns the index slot of block in an index of n entries.
func slotOf(block mem.Addr, n int) int {
	h := uint64(block) * 0x9e3779b97f4a7c15
	return int(h >> 32 % uint64(n))
}

// Train implements prefetch.Prefetcher: record demand misses in program
// order.
func (p *Prefetcher) Train(ctx prefetch.Context) {
	if !ctx.Type.IsDemand() || ctx.Hit {
		return // temporal prefetchers train on the miss sequence only
	}
	block := mem.BlockAlign(ctx.Addr)
	p.hist[p.head%uint64(len(p.hist))] = block
	*p.slot(block) = indexEntry{block: block, pos: p.head, valid: true}
	p.head++
}

// Operate implements prefetch.Prefetcher.
func (p *Prefetcher) Operate(ctx prefetch.Context, issue func(prefetch.Candidate)) {
	if !ctx.Type.IsDemand() || ctx.Hit {
		return
	}
	block := mem.BlockAlign(ctx.Addr)
	e := *p.slot(block)
	p.Train(ctx)
	if !e.valid || e.block != block {
		return
	}
	// Replay the misses that followed the previous occurrence, if they are
	// still in the history window.
	if p.head-e.pos >= uint64(len(p.hist)) {
		return // overwritten
	}
	for i := uint64(1); i <= uint64(p.cfg.Degree); i++ {
		pos := e.pos + i
		if pos >= p.head {
			return
		}
		if p.head-pos >= uint64(len(p.hist)) {
			continue
		}
		succ := p.hist[pos%uint64(len(p.hist))]
		if succ == block {
			continue
		}
		// Temporal replay is not bounded by spatial regions in principle,
		// but physical-address prefetching still must not leave the
		// residing page; the engine's boundary policy enforces that, and
		// the generation limit bounds what we propose.
		if !prefetch.InGenLimit(ctx.Addr, succ) {
			continue
		}
		issue(prefetch.Candidate{Addr: succ, FillL2: true})
	}
}
