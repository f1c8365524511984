// Package bop implements the Best-Offset Prefetcher (Michaud, HPCA 2016): a
// learning phase scores a fixed list of candidate offsets against a table of
// recently requested blocks and, at the end of each round, adopts the
// best-scoring offset for prefetching.
//
// BOP keeps no structure indexed by the physical page number, so — exactly as
// the paper observes — its PSA-2MB variant degenerates to PSA: the regionBits
// parameter is accepted for interface uniformity and ignored.
package bop

import (
	"repro/internal/mem"
	"repro/internal/prefetch"
	"repro/internal/slabpool"
)

// Config sizes BOP's structures.
type Config struct {
	RREntries  int // recent-requests table entries (256)
	ScoreMax   int // round ends early when an offset reaches this (31)
	RoundMax   int // max rounds per learning phase (100)
	BadScore   int // best score below this disables prefetching (1)
	NumOffsets int // length of the offset list (0 = full list)
	Degree     int // consecutive multiples of the best offset issued (1)
}

// DefaultConfig returns the configuration used throughout the evaluation.
func DefaultConfig() Config {
	return Config{RREntries: 256, ScoreMax: 31, RoundMax: 100, BadScore: 1, Degree: 1}
}

// Scale returns a copy of c with the RR table scaled by k (ISO storage).
func (c Config) Scale(k int) Config {
	c.RREntries *= k
	return c
}

// offsetList returns Michaud's offset candidates: integers 1..256 whose prime
// factorisation contains only 2, 3, and 5.
func offsetList(limit int) []int {
	var out []int
	for n := 1; n <= 256; n++ {
		m := n
		for _, p := range []int{2, 3, 5} {
			for m%p == 0 {
				m /= p
			}
		}
		if m == 1 {
			out = append(out, n)
		}
		if limit > 0 && len(out) == limit {
			break
		}
	}
	return out
}

// Prefetcher is a BOP instance.
type Prefetcher struct {
	cfg Config
	// slab owns offsets, scores and rr; Release hands it to the next
	// instance of the same shape.
	slab    *slab
	offsets []int
	scores  []int

	rr []mem.Addr // recent requests, direct-mapped by block-number hash

	testIdx    int // offset under test in the current round-robin sweep
	round      int
	best       int  // currently adopted offset (blocks)
	prefetchOn bool // false when the last phase ended with a bad score
}

// New creates a BOP prefetcher. regionBits is ignored (no page-indexed
// state).
func New(cfg Config, _ uint) *Prefetcher {
	s := slabs.Pool(slabKey(cfg)).Get()
	if s == nil {
		offs := offsetList(cfg.NumOffsets)
		s = &slab{offsets: offs, scores: make([]int, len(offs)), rr: make([]mem.Addr, cfg.RREntries)}
	}
	return &Prefetcher{
		cfg:        cfg,
		slab:       s,
		offsets:    s.offsets,
		scores:     s.scores,
		rr:         s.rr,
		best:       1,
		prefetchOn: true,
	}
}

// slab is an instance's tables: the offset list, its scores and the
// recent-requests table. A slab outlives its instance: Release clears it and
// hands it to the next instance with the same table sizes.
type slab struct {
	offsets []int
	scores  []int
	rr      []mem.Addr
}

// slabs pools tables by slabKey.
var slabs slabpool.Table[slab]

// slabKey is the shape of cfg's tables.
func slabKey(cfg Config) uint64 { return slabpool.Key4(cfg.RREntries, cfg.NumOffsets, 0, 0) }

// Release implements prefetch.Prefetcher: it clears the scores and the
// recent-requests table, 2 KB at the default size, and offers the tables to
// the next instance of the same shape.
func (p *Prefetcher) Release() {
	s := p.slab
	if s == nil {
		return
	}
	p.slab, p.offsets, p.scores, p.rr = nil, nil, nil, nil
	if pool := slabs.Pool(slabKey(p.cfg)); pool != nil {
		clear(s.scores)
		clear(s.rr)
		pool.Put(s)
	}
}

// Factory adapts New to prefetch.Factory.
func Factory(cfg Config) prefetch.Factory {
	return func(regionBits uint) prefetch.Prefetcher { return New(cfg, regionBits) }
}

// BestOffset exposes the adopted offset (for tests and diagnostics).
func (p *Prefetcher) BestOffset() int { return p.best }

// Enabled reports whether the last learning phase adopted a usable offset.
func (p *Prefetcher) Enabled() bool { return p.prefetchOn }

func (p *Prefetcher) rrIndex(blk mem.Addr) int {
	h := uint64(blk) * 0x9e3779b97f4a7c15
	return int(h>>40) % p.cfg.RREntries
}

func (p *Prefetcher) rrInsert(blk mem.Addr) { p.rr[p.rrIndex(blk)] = blk }
func (p *Prefetcher) rrContains(blk mem.Addr) bool {
	return p.rr[p.rrIndex(blk)] == blk && blk != 0
}

// endPhase adopts the best-scoring offset and resets the learning state.
func (p *Prefetcher) endPhase() {
	bestScore, bestOff := -1, 1
	for i, s := range p.scores {
		if s > bestScore {
			bestScore, bestOff = s, p.offsets[i]
		}
	}
	p.best = bestOff
	p.prefetchOn = bestScore >= p.cfg.BadScore
	for i := range p.scores {
		p.scores[i] = 0
	}
	p.round = 0
	p.testIdx = 0
}

// Train implements prefetch.Prefetcher: advance the learning phase.
func (p *Prefetcher) Train(ctx prefetch.Context) {
	if !ctx.Type.IsDemand() {
		return
	}
	blk := mem.BlockNumber(ctx.Addr)

	// Score the offset under test: would a prefetch with this offset,
	// triggered when blk-d was accessed, have covered the current access?
	d := p.offsets[p.testIdx]
	if p.rrContains(blk - mem.Addr(d)) {
		p.scores[p.testIdx]++
		if p.scores[p.testIdx] >= p.cfg.ScoreMax {
			p.endPhase()
			p.rrInsert(blk)
			return
		}
	}
	p.testIdx++
	if p.testIdx == len(p.offsets) {
		p.testIdx = 0
		p.round++
		if p.round >= p.cfg.RoundMax {
			p.endPhase()
		}
	}
	p.rrInsert(blk)
}

// Operate implements prefetch.Prefetcher.
func (p *Prefetcher) Operate(ctx prefetch.Context, issue func(prefetch.Candidate)) {
	if !ctx.Type.IsDemand() {
		return
	}
	p.Train(ctx)
	if !p.prefetchOn {
		return
	}
	for k := 1; k <= p.cfg.Degree; k++ {
		cand := ctx.Addr + mem.Addr(k*p.best)*mem.BlockSize
		if !prefetch.InGenLimit(ctx.Addr, cand) {
			return
		}
		issue(prefetch.Candidate{Addr: cand, FillL2: true})
	}
}
