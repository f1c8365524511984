// Package spp implements the Signature Path Prefetcher (Kim et al.,
// MICRO 2016): a confidence-based lookahead L2 prefetcher that compresses
// per-page delta history into signatures (Signature Table), learns
// signature→delta transitions (Pattern Table), and walks the most likely
// signature path to issue prefetches at decreasing confidence, directing
// high-confidence prefetches into the L2 and moderate ones into the LLC.
//
// The page granularity used to index the Signature Table is configurable
// via regionBits: 12 reproduces the original 4KB-indexed SPP, 21 the paper's
// SPP-PSA-2MB variant whose deltas range ±32767 instead of ±63.
package spp

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
	"repro/internal/prefetch"
	"repro/internal/recency"
	"repro/internal/slabpool"
)

// Config sizes SPP's structures and thresholds.
type Config struct {
	STSets, STWays int     // Signature Table geometry (256 entries default; STSets a power of two, STWays 1..recency.MaxWays)
	PTEntries      int     // Pattern Table entries (512 default; a power of two)
	SigBits        uint    // signature width (12 default)
	DeltaSlots     int     // deltas tracked per PT entry (1..maxDeltaSlots, 4 default)
	CounterMax     int     // saturation for c_delta / c_sig (1..maxCounter, 15 default)
	FillThreshold  float64 // path confidence for L2 fill (Tp, 0.25)
	LLCThreshold   float64 // path confidence for LLC fill & lookahead stop (Tf, 0.10)
	MaxLookahead   int     // lookahead depth cap
	GHREntries     int     // global history register entries (8)
}

// DefaultConfig returns the configuration used throughout the evaluation.
func DefaultConfig() Config {
	return Config{
		STSets: 64, STWays: 4,
		PTEntries:     512,
		SigBits:       12,
		DeltaSlots:    4,
		CounterMax:    15,
		FillThreshold: 0.25,
		LLCThreshold:  0.10,
		MaxLookahead:  24,
		GHREntries:    8,
	}
}

// Scale returns a copy of c with table capacities multiplied by k; the
// ISO-storage comparison of Figure 11 uses Scale(2) on the original variant.
func (c Config) Scale(k int) Config {
	c.STSets *= k
	c.PTEntries *= k
	return c
}

// A Signature Table way is one word: the signature in bits 0-15, the last
// offset in bits 16-30 (a 2MB region holds 2^15 blocks) and region+1 in
// bits 31-63, so the zero word is a way never filled. Regions at or above
// stRegionLimit would lose high bits and alias, so a fill panics on them
// (stWord).
const (
	stOffShift    = 16
	stOffMask     = 1<<15 - 1
	stKeyShift    = 31
	stRegionLimit = 1<<(64-stKeyShift) - 1
)

// stWord packs a filled Signature Table way.
func stWord(region mem.Addr, off int, sig uint16) uint64 {
	if region >= stRegionLimit {
		stOverflow(region)
	}
	return (uint64(region)+1)<<stKeyShift | uint64(off)<<stOffShift | uint64(sig)
}

// stOverflow is stWord's panic, kept out of line so stWord stays inlinable.
//
//go:noinline
func stOverflow(region mem.Addr) {
	panic(fmt.Sprintf("spp: region %#x is past the Signature Table word's limit 2^33 - 1", region))
}

// maxDeltaSlots bounds Config.DeltaSlots: each Pattern Table entry holds its
// slots inline, so the whole table is one allocation.
const maxDeltaSlots = 4

// maxCounter bounds Config.CounterMax, so every c_delta/c_sig pair indexes
// counterRatio and fits a nibble.
const maxCounter = 15

// counterRatio[c][s] is float64(c)/float64(s), the path-confidence decay
// factor of a delta seen c times under a signature seen s times: the
// lookahead reads it instead of dividing on its loop-carried chain. Each
// entry is the quotient the division would produce, so the walk is
// unchanged bit for bit. Column 0 is never read (lookahead stops at
// c_sig = 0).
var counterRatio = func() (r [maxCounter + 1][maxCounter + 1]float64) {
	for c := range r {
		for s := 1; s <= maxCounter; s++ {
			r[c][s] = float64(c) / float64(s)
		}
	}
	return r
}()

// ptEntry is one Pattern Table entry. New bounds regionBits to 12..21, so
// |delta| < 2^15 blocks, and CounterMax to maxCounter, so every counter is
// a nibble of cnt: nibble 0 holds c_sig, nibble 1+i slot i's c_delta.
type ptEntry struct {
	cnt    uint32
	deltas [maxDeltaSlots]int16 // deltas[:cfg.DeltaSlots] are live
}

// ptAgeMask clears the bit each nibble receives from its upper neighbour
// when cnt shifts right by one, so one shift-and-mask halves every counter.
const ptAgeMask = 0x77777

// csig returns the entry's signature counter.
func (e *ptEntry) csig() int { return int(e.cnt & 0xF) }

// c returns slot i's delta counter.
func (e *ptEntry) c(i int) int { return int(e.cnt >> (4 * uint(i+1)) & 0xF) }

type ghrEntry struct {
	valid      bool
	sig        uint16
	lastOffset int
	delta      int
	lru        uint64
}

// Prefetcher is an SPP instance. It implements prefetch.Prefetcher and
// prefetch.FeedbackReceiver (for global accuracy throttling).
type Prefetcher struct {
	cfg        Config
	regionBits uint
	sigMask    uint16
	// stMask/ptMask are STSets-1 / PTEntries-1: both sizes are powers of
	// two, so the tables index with masks.
	stMask, ptMask int

	// slab owns the tables below; Release hands it to the next instance of
	// the same shape. The Signature Table is one array: STSets*STWays way
	// words (stWays, set s at s*STWays) then one recency word per set
	// (stOrder).
	slab            *slab
	stWays, stOrder []uint64
	pt              []ptEntry
	ghr             []ghrEntry
	tick            uint64 // the GHR's recency clock

	// Global accuracy throttle: path confidence is scaled by the observed
	// useful/issued ratio, halved periodically to track phases.
	fbUseful, fbIssued uint64
}

// New creates an SPP prefetcher that indexes its Signature Table with pages
// of 2^regionBits bytes.
func New(cfg Config, regionBits uint) *Prefetcher {
	if regionBits < mem.PageBits4K || regionBits > mem.PageBits2M {
		panic(fmt.Sprintf("spp: regionBits %d out of range", regionBits))
	}
	if cfg.DeltaSlots < 1 || cfg.DeltaSlots > maxDeltaSlots {
		panic(fmt.Sprintf("spp: DeltaSlots %d out of range 1..%d", cfg.DeltaSlots, maxDeltaSlots))
	}
	if cfg.CounterMax < 1 || cfg.CounterMax > maxCounter {
		panic(fmt.Sprintf("spp: CounterMax %d out of range 1..%d", cfg.CounterMax, maxCounter))
	}
	if bits.OnesCount(uint(cfg.STSets)) != 1 || bits.OnesCount(uint(cfg.PTEntries)) != 1 {
		panic(fmt.Sprintf("spp: STSets %d and PTEntries %d must be powers of two", cfg.STSets, cfg.PTEntries))
	}
	if cfg.STWays < 1 || cfg.STWays > recency.MaxWays {
		panic(fmt.Sprintf("spp: STWays %d out of range 1..%d, the recency order's limit", cfg.STWays, recency.MaxWays))
	}
	s := slabs.Pool(slabKey(cfg)).Get()
	if s == nil {
		s = newSlab(cfg)
	}
	n := cfg.STSets * cfg.STWays
	return &Prefetcher{
		cfg:        cfg,
		regionBits: regionBits,
		sigMask:    uint16(1<<cfg.SigBits - 1),
		stMask:     cfg.STSets - 1,
		ptMask:     cfg.PTEntries - 1,
		slab:       s,
		stWays:     s.st[:n:n],
		stOrder:    s.st[n:],
		pt:         s.pt,
		ghr:        s.ghr,
	}
}

// slab is an instance's tables: the Signature Table's way and recency words
// in one array, the Pattern Table and the global history register. A slab
// outlives its instance: Release resets it and hands it to the next instance
// with the same table sizes.
type slab struct {
	st  []uint64
	pt  []ptEntry
	ghr []ghrEntry
}

// slabs pools tables by slabKey.
var slabs slabpool.Table[slab]

// slabKey is the shape of cfg's tables.
func slabKey(cfg Config) uint64 {
	return slabpool.Key4(cfg.STSets, cfg.STWays, cfg.PTEntries, cfg.GHREntries)
}

// newSlab allocates tables for cfg in their construction state: every way
// never filled, each set's recency order at recency.Initial.
func newSlab(cfg Config) *slab {
	n := cfg.STSets * cfg.STWays
	s := &slab{
		st:  make([]uint64, n+cfg.STSets),
		pt:  make([]ptEntry, cfg.PTEntries),
		ghr: make([]ghrEntry, cfg.GHREntries),
	}
	initial := recency.Initial(cfg.STWays)
	for i := range s.st[n:] {
		s.st[n+i] = initial
	}
	return s
}

// reset restores the construction state. The tables are cleared whole:
// 8.5 KB clears in about 0.2 µs, while testing each set and Pattern Table
// entry for use took 1.3 µs even when nothing was used.
func (s *slab) reset(ways int) {
	n := len(s.st) / (ways + 1) * ways
	clear(s.st[:n])
	initial := recency.Initial(ways)
	for i := range s.st[n:] {
		s.st[n+i] = initial
	}
	clear(s.pt)
	clear(s.ghr)
}

// Release implements prefetch.Prefetcher: it resets the tables and offers
// them to the next instance of the same shape.
func (p *Prefetcher) Release() {
	s := p.slab
	if s == nil {
		return
	}
	p.slab, p.stWays, p.stOrder, p.pt, p.ghr = nil, nil, nil, nil, nil
	if pool := slabs.Pool(slabKey(p.cfg)); pool != nil {
		s.reset(p.cfg.STWays)
		pool.Put(s)
	}
}

// Factory adapts New to prefetch.Factory.
func Factory(cfg Config) prefetch.Factory {
	return func(regionBits uint) prefetch.Prefetcher { return New(cfg, regionBits) }
}

// blocksPerRegion returns the number of blocks in one indexing region.
func (p *Prefetcher) blocksPerRegion() int { return 1 << (p.regionBits - mem.BlockBits) }

// region and offset decompose a block address under the indexing granularity.
func (p *Prefetcher) region(a mem.Addr) mem.Addr { return a >> p.regionBits }
func (p *Prefetcher) offset(a mem.Addr) int {
	return int((a >> mem.BlockBits) & mem.Addr(p.blocksPerRegion()-1))
}

// nextSig folds a delta into a signature: shift-xor with a sign+magnitude
// encoding of the delta, as in the original design.
func (p *Prefetcher) nextSig(sig uint16, delta int) uint16 {
	enc := delta
	if enc < 0 {
		enc = -enc | 1<<6
	}
	return ((sig << 3) ^ uint16(enc)) & p.sigMask
}

// stSet returns the Signature Table set that holds region.
func (p *Prefetcher) stSet(region mem.Addr) int {
	// The set index hashes the region number: physically contiguous 2MB
	// pages are 512-page aligned, so raw low bits would map concurrent
	// streams into the same set and thrash it.
	h := uint64(region) * 0x9e3779b97f4a7c15
	h ^= h >> 29
	return int(h) & p.stMask
}

// ptIndex maps a signature to its Pattern Table entry.
func (p *Prefetcher) ptIndex(sig uint16) int { return int(sig) & p.ptMask }

// ptUpdate records the observed delta under the signature.
func (p *Prefetcher) ptUpdate(sig uint16, delta int) {
	e := &p.pt[p.ptIndex(sig)]
	cmax := p.cfg.CounterMax
	if e.csig() >= cmax {
		// Saturated: age all counters to keep ratios adaptive.
		e.cnt = e.cnt >> 1 & ptAgeMask
	}
	e.cnt++ // c_sig < cmax ≤ 15 here: no carry out of nibble 0
	slot := -1
	minI := 0
	for i := 0; i < p.cfg.DeltaSlots; i++ {
		if e.c(i) > 0 && int(e.deltas[i]) == delta {
			slot = i
			break
		}
		if e.c(i) < e.c(minI) {
			minI = i
		}
	}
	if slot < 0 {
		e.deltas[minI] = int16(delta)
		e.cnt &^= 0xF << (4 * uint(minI+1))
		slot = minI
	}
	if e.c(slot) < cmax {
		e.cnt += 1 << (4 * uint(slot+1))
	}
}

// ghrRecord remembers a lookahead path that left the region, so the pattern
// can be resumed when the neighbouring region is first accessed.
func (p *Prefetcher) ghrRecord(sig uint16, lastOffset, delta int) {
	v := &p.ghr[0]
	for i := range p.ghr {
		if !p.ghr[i].valid {
			v = &p.ghr[i]
			break
		}
		if p.ghr[i].lru < v.lru {
			v = &p.ghr[i]
		}
	}
	p.tick++
	*v = ghrEntry{valid: true, sig: sig, lastOffset: lastOffset, delta: delta, lru: p.tick}
}

// ghrBootstrap looks for a recorded cross-region path that lands on the given
// first offset of a new region, returning the signature to adopt.
func (p *Prefetcher) ghrBootstrap(off int) (uint16, bool) {
	bpr := p.blocksPerRegion()
	for i := range p.ghr {
		e := &p.ghr[i]
		if !e.valid {
			continue
		}
		landing := (e.lastOffset + e.delta) & (bpr - 1)
		if landing == off {
			p.tick++
			e.lru = p.tick
			return p.nextSig(e.sig, e.delta), true
		}
	}
	return 0, false
}

// alpha returns the global accuracy scaling factor applied to path
// confidence.
func (p *Prefetcher) alpha() float64 {
	if p.fbIssued < 32 {
		return 0.9 // warm-up prior
	}
	a := float64(p.fbUseful) / float64(p.fbIssued)
	if a < 0.3 {
		a = 0.3
	}
	if a > 1 {
		a = 1
	}
	return a
}

// PrefetchUseful implements prefetch.FeedbackReceiver.
func (p *Prefetcher) PrefetchUseful(mem.Addr) {
	p.fbUseful++
	p.fbIssued++
	p.decayFeedback()
}

// PrefetchUnused implements prefetch.FeedbackReceiver.
func (p *Prefetcher) PrefetchUnused(mem.Addr) {
	p.fbIssued++
	p.decayFeedback()
}

// DemandMiss implements prefetch.FeedbackReceiver.
func (p *Prefetcher) DemandMiss(mem.Addr) {}

func (p *Prefetcher) decayFeedback() {
	if p.fbIssued >= 1024 {
		p.fbIssued >>= 1
		p.fbUseful >>= 1
	}
}

// Meta describes one lookahead step for a proposed candidate; PPF consumes it
// as perceptron features.
type Meta struct {
	Sig        uint16
	Delta      int
	Depth      int
	Confidence float64
}

// Train implements prefetch.Prefetcher: update ST/PT without proposing.
func (p *Prefetcher) Train(ctx prefetch.Context) {
	p.train(ctx)
}

// train returns the signature to start lookahead from and the trigger offset.
func (p *Prefetcher) train(ctx prefetch.Context) (sig uint16, off int, ok bool) {
	if !ctx.Type.IsDemand() {
		return 0, 0, false
	}
	region := p.region(ctx.Addr)
	off = p.offset(ctx.Addr)
	set := p.stSet(region)
	ways := p.stWays[set*p.cfg.STWays : (set+1)*p.cfg.STWays]
	key := uint64(region) + 1
	for i, w := range ways {
		if w>>stKeyShift != key {
			continue
		}
		p.stOrder[set] = recency.Promote(p.stOrder[set], i)
		sig = uint16(w)
		delta := off - int(w>>stOffShift&stOffMask)
		if delta == 0 {
			return sig, off, true
		}
		p.ptUpdate(sig, delta)
		sig = p.nextSig(sig, delta)
		ways[i] = stWord(region, off, sig)
		return sig, off, true
	}
	// First touch of this region: try to resume a cross-region path, and
	// fill the set's tail way — its first never-filled way, else its LRU.
	bootSig, found := p.ghrBootstrap(off)
	v := recency.Way(p.stOrder[set], p.cfg.STWays-1)
	ways[v] = stWord(region, off, bootSig)
	p.stOrder[set] = recency.Promote(p.stOrder[set], v)
	return bootSig, off, found
}

// Operate implements prefetch.Prefetcher.
func (p *Prefetcher) Operate(ctx prefetch.Context, issue func(prefetch.Candidate)) {
	if sig, off, ok := p.train(ctx); ok {
		p.lookahead(ctx.Addr, sig, off, issue, nil)
	}
}

// OperateMeta is Operate with per-candidate lookahead metadata, used by PPF.
func (p *Prefetcher) OperateMeta(ctx prefetch.Context, issue func(prefetch.Candidate, Meta)) {
	if sig, off, ok := p.train(ctx); ok {
		p.lookahead(ctx.Addr, sig, off, nil, issue)
	}
}

// lookahead walks the signature path issuing candidates at decreasing path
// confidence, each to issueMeta with its lookahead step when that is set and
// to issue otherwise.
func (p *Prefetcher) lookahead(trigger mem.Addr, sig uint16, off int,
	issue func(prefetch.Candidate), issueMeta func(prefetch.Candidate, Meta)) {
	regionBase := trigger &^ (1<<p.regionBits - 1)
	bpr := p.blocksPerRegion()
	path := p.alpha()
	base := off
	crossRecorded := false

	alpha := path
	for depth := 0; depth < p.cfg.MaxLookahead; depth++ {
		e := &p.pt[p.ptIndex(sig)]
		csig := e.csig()
		if csig == 0 {
			return
		}
		bestC, bestDelta := 0, 0
		cnt := e.cnt
		for _, d := range e.deltas[:p.cfg.DeltaSlots] {
			cnt >>= 4 // the slot's c_delta to nibble 0
			n := int(cnt & 0xF)
			if n == 0 {
				continue
			}
			conf := path * float64(n) / float64(csig)
			if conf < p.cfg.LLCThreshold {
				continue
			}
			delta := int(d)
			target := base + delta
			cand := regionBase + mem.Addr(target)*mem.BlockSize
			// Candidates may leave the indexing region (that is the whole
			// point of page-size awareness) but never the 2MB generation
			// region of the trigger.
			if target < 0 || !prefetch.InGenLimit(trigger, cand) {
				if !crossRecorded && (target < 0 || target >= bpr) {
					p.ghrRecord(sig, base&(bpr-1), delta)
					crossRecorded = true
				}
				continue
			}
			if target >= bpr && !crossRecorded {
				// Leaving the region while still inside the 2MB limit: record
				// for GHR bootstrap too (the original records at 4KB exits).
				p.ghrRecord(sig, base&(bpr-1), delta)
				crossRecorded = true
			}
			c := prefetch.Candidate{Addr: cand, FillL2: conf >= p.cfg.FillThreshold}
			if issueMeta != nil {
				issueMeta(c, Meta{Sig: sig, Delta: delta, Depth: depth, Confidence: conf})
			} else {
				issue(c)
			}
			if n > bestC {
				bestC, bestDelta = n, delta
			}
		}
		if bestC == 0 {
			return
		}
		// Path confidence decays by the delta ratio and by the global
		// accuracy factor at every level, as in the original design — an
		// inaccurate phase cuts lookahead short quickly.
		path *= counterRatio[bestC][csig] * alpha
		if path < p.cfg.LLCThreshold {
			return
		}
		base += bestDelta
		sig = p.nextSig(sig, bestDelta)
	}
}
