// Package vldp implements the Variable Length Delta Prefetcher (Shevgoor et
// al., MICRO 2015): per-page delta histories (Delta History Buffer) feed a
// cascade of Delta Prediction Tables keyed by delta sequences of increasing
// length, with longer-history tables taking precedence; an Offset Prediction
// Table predicts the first delta of a freshly touched page.
//
// As with SPP, the page granularity used for the DHB is configurable via
// regionBits so the paper's VLDP-PSA-2MB variant can be instantiated.
package vldp

import (
	"repro/internal/mem"
	"repro/internal/prefetch"
	"repro/internal/slabpool"
)

// Config sizes VLDP's structures.
type Config struct {
	DHBEntries int // delta history buffer entries (16)
	DPTEntries int // entries per delta prediction table (64)
	OPTEntries int // offset prediction table entries (64)
	HistoryLen int // delta history per page (3 tables → 3)
	Degree     int // prefetches chained per trigger (4)
}

// DefaultConfig returns the configuration used throughout the evaluation.
func DefaultConfig() Config {
	return Config{DHBEntries: 16, DPTEntries: 64, OPTEntries: 64, HistoryLen: 3, Degree: 4}
}

// Scale returns a copy of c with table capacities multiplied by k (ISO
// storage comparison).
func (c Config) Scale(k int) Config {
	c.DHBEntries *= k
	c.DPTEntries *= k
	c.OPTEntries *= k
	return c
}

type dhbEntry struct {
	tag        mem.Addr
	valid      bool
	lastOffset int
	deltas     []int // most recent last; a window of one slab shared by all entries
	lru        uint64
}

type dptEntry struct {
	key   uint64
	delta int
	conf  int // 2-bit saturating
	valid bool
}

type optEntry struct {
	delta int
	conf  int
	valid bool
}

// Prefetcher is a VLDP instance.
type Prefetcher struct {
	cfg        Config
	regionBits uint

	// slab owns dhb, dpt, opt and histBuf; Release hands it to the next
	// instance of the same shape.
	slab *slab
	dhb  []dhbEntry
	// dpt holds one table per history length 1..HistoryLen back to back:
	// table level occupies dpt[level*DPTEntries : (level+1)*DPTEntries].
	dpt  []dptEntry
	opt  []optEntry
	tick uint64

	// histBuf is Operate's scratch copy of the trigger entry's delta history
	// (capacity HistoryLen+1, reused across calls): the prediction chain
	// mutates its copy while dptUpdate may run against the entry's own.
	histBuf []int
}

// New creates a VLDP prefetcher indexing pages of 2^regionBits bytes.
func New(cfg Config, regionBits uint) *Prefetcher {
	s := slabs.Pool(slabKey(cfg)).Get()
	if s == nil {
		s = newSlab(cfg)
	}
	return &Prefetcher{
		cfg:        cfg,
		regionBits: regionBits,
		slab:       s,
		dhb:        s.dhb,
		dpt:        s.dpt,
		opt:        s.opt,
		histBuf:    s.hist[len(s.dhb)*cfg.HistoryLen : len(s.dhb)*cfg.HistoryLen],
	}
}

// slab is an instance's tables: the history buffer, the prediction tables,
// and hist, which backs every history entry's deltas and then Operate's
// scratch history. A slab outlives its instance: Release resets it and hands
// it to the next instance with the same table sizes.
type slab struct {
	dhb  []dhbEntry
	dpt  []dptEntry
	opt  []optEntry
	hist []int
}

// slabs pools tables by slabKey.
var slabs slabpool.Table[slab]

// slabKey is the shape of cfg's tables.
func slabKey(cfg Config) uint64 {
	return slabpool.Key4(cfg.DHBEntries, cfg.DPTEntries, cfg.OPTEntries, cfg.HistoryLen)
}

// newSlab allocates tables for cfg in their construction state.
func newSlab(cfg Config) *slab {
	h := cfg.HistoryLen
	s := &slab{
		dhb:  make([]dhbEntry, cfg.DHBEntries),
		dpt:  make([]dptEntry, h*cfg.DPTEntries),
		opt:  make([]optEntry, cfg.OPTEntries),
		hist: make([]int, cfg.DHBEntries*h+h+1),
	}
	s.reset(h)
	return s
}

// reset restores the construction state, each history entry empty over its
// own window of hist, capacity-capped so its appends never spill into the
// next window. The tables are cleared whole: at 9 KB that is cheaper than
// testing each entry for use.
func (s *slab) reset(h int) {
	clear(s.hist)
	for i := range s.dhb {
		s.dhb[i] = dhbEntry{deltas: s.hist[i*h : i*h : (i+1)*h]}
	}
	clear(s.dpt)
	clear(s.opt)
}

// Release implements prefetch.Prefetcher: it resets the tables and offers
// them to the next instance of the same shape.
func (p *Prefetcher) Release() {
	s := p.slab
	if s == nil {
		return
	}
	p.slab, p.dhb, p.dpt, p.opt, p.histBuf = nil, nil, nil, nil, nil
	if pool := slabs.Pool(slabKey(p.cfg)); pool != nil {
		s.reset(p.cfg.HistoryLen)
		pool.Put(s)
	}
}

// Factory adapts New to prefetch.Factory.
func Factory(cfg Config) prefetch.Factory {
	return func(regionBits uint) prefetch.Prefetcher { return New(cfg, regionBits) }
}

func (p *Prefetcher) blocksPerRegion() int       { return 1 << (p.regionBits - mem.BlockBits) }
func (p *Prefetcher) region(a mem.Addr) mem.Addr { return a >> p.regionBits }
func (p *Prefetcher) offset(a mem.Addr) int {
	return int((a >> mem.BlockBits) & mem.Addr(p.blocksPerRegion()-1))
}

// seqKey hashes the most recent n deltas of hist into a table key.
func seqKey(hist []int, n int) uint64 {
	k := uint64(0x9e3779b97f4a7c15)
	for _, d := range hist[len(hist)-n:] {
		enc := uint64(d)
		if d < 0 {
			enc = uint64(-d) | 1<<20
		}
		k = (k ^ enc) * 0x100000001b3
	}
	return k
}

func (p *Prefetcher) dhbLookup(region mem.Addr) *dhbEntry {
	for i := range p.dhb {
		if p.dhb[i].valid && p.dhb[i].tag == region {
			p.tick++
			p.dhb[i].lru = p.tick
			return &p.dhb[i]
		}
	}
	return nil
}

func (p *Prefetcher) dhbInsert(region mem.Addr, off int) *dhbEntry {
	v := &p.dhb[0]
	for i := range p.dhb {
		if !p.dhb[i].valid {
			v = &p.dhb[i]
			break
		}
		if p.dhb[i].lru < v.lru {
			v = &p.dhb[i]
		}
	}
	p.tick++
	// Reuse the victim's delta window (HistoryLen capacity in the shared
	// slab) so steady-state region churn allocates nothing.
	deltas := v.deltas[:0]
	*v = dhbEntry{tag: region, valid: true, lastOffset: off, deltas: deltas, lru: p.tick}
	return v
}

// dptAt returns the entry of table level that key maps to.
func (p *Prefetcher) dptAt(level int, key uint64) *dptEntry {
	return &p.dpt[level*p.cfg.DPTEntries+int(key%uint64(p.cfg.DPTEntries))]
}

// dptUpdate trains table level (history length level+1) to predict delta for
// the given history.
func (p *Prefetcher) dptUpdate(level int, hist []int, delta int) {
	if len(hist) < level+1 {
		return
	}
	key := seqKey(hist, level+1)
	e := p.dptAt(level, key)
	if e.valid && e.key == key {
		if e.delta == delta {
			if e.conf < 3 {
				e.conf++
			}
		} else {
			e.conf--
			if e.conf < 0 {
				e.delta = delta
				e.conf = 0
			}
		}
		return
	}
	// Simple replacement: low-confidence entries give way.
	if !e.valid || e.conf == 0 {
		*e = dptEntry{key: key, delta: delta, conf: 0, valid: true}
	} else {
		e.conf--
	}
}

// dptPredict consults the tables from the longest matching history down.
func (p *Prefetcher) dptPredict(hist []int) (int, bool) {
	for level := min(len(hist), p.cfg.HistoryLen) - 1; level >= 0; level-- {
		key := seqKey(hist, level+1)
		e := p.dptAt(level, key)
		if e.valid && e.key == key && e.conf > 0 {
			return e.delta, true
		}
	}
	return 0, false
}

// Train implements prefetch.Prefetcher.
func (p *Prefetcher) Train(ctx prefetch.Context) { p.train(ctx) }

func (p *Prefetcher) train(ctx prefetch.Context) (e *dhbEntry, newRegion bool, ok bool) {
	if !ctx.Type.IsDemand() {
		return nil, false, false
	}
	region := p.region(ctx.Addr)
	off := p.offset(ctx.Addr)
	if e = p.dhbLookup(region); e == nil {
		e = p.dhbInsert(region, off)
		// Train the OPT with the first offset of the region once the first
		// delta is known; prediction for now comes from the OPT.
		return e, true, true
	}
	delta := off - e.lastOffset
	if delta == 0 {
		return e, false, true
	}
	if len(e.deltas) == 0 {
		// The first in-region delta trains the OPT under the first offset.
		first := e.lastOffset % p.cfg.OPTEntries
		oe := &p.opt[first]
		if oe.valid && oe.delta == delta {
			if oe.conf < 3 {
				oe.conf++
			}
		} else if !oe.valid || oe.conf == 0 {
			*oe = optEntry{delta: delta, conf: 0, valid: true}
		} else {
			oe.conf--
		}
	}
	// Train every DPT level against its history prefix.
	for level := 0; level < p.cfg.HistoryLen; level++ {
		p.dptUpdate(level, e.deltas, delta)
	}
	if len(e.deltas) >= p.cfg.HistoryLen {
		// Slide in place instead of re-slicing: e.deltas[1:] would shrink the
		// capacity and force a reallocation on every subsequent train.
		copy(e.deltas, e.deltas[1:])
		e.deltas[len(e.deltas)-1] = delta
	} else {
		e.deltas = append(e.deltas, delta)
	}
	e.lastOffset = off
	return e, false, true
}

// Operate implements prefetch.Prefetcher.
func (p *Prefetcher) Operate(ctx prefetch.Context, issue func(prefetch.Candidate)) {
	e, newRegion, ok := p.train(ctx)
	if !ok {
		return
	}
	bpr := p.blocksPerRegion()
	base := p.offset(ctx.Addr)
	regionBase := ctx.Addr &^ (1<<p.regionBits - 1)

	if newRegion {
		// First access to a region: the OPT predicts the first delta.
		oe := &p.opt[base%p.cfg.OPTEntries]
		if oe.valid && oe.conf > 0 {
			target := base + oe.delta
			cand := regionBase + mem.Addr(target)*mem.BlockSize
			if target >= 0 && prefetch.InGenLimit(ctx.Addr, cand) {
				issue(prefetch.Candidate{Addr: cand, FillL2: true})
			}
		}
		return
	}

	// Chain DPT predictions up to Degree, simulating the history advance in
	// the reusable scratch buffer (capacity HistoryLen+1: one append past the
	// window before each in-place slide, so the chain never reallocates).
	hist := append(p.histBuf[:0], e.deltas...)
	cur := base
	for i := 0; i < p.cfg.Degree; i++ {
		delta, found := p.dptPredict(hist)
		if !found {
			break
		}
		cur += delta
		cand := regionBase + mem.Addr(cur)*mem.BlockSize
		if cur < 0 || !prefetch.InGenLimit(ctx.Addr, cand) {
			break
		}
		_ = bpr
		// Deeper chained prefetches carry less confidence: direct the first
		// two to the L2 and the rest to the LLC.
		issue(prefetch.Candidate{Addr: cand, FillL2: i < 2})
		hist = append(hist, delta)
		if len(hist) > p.cfg.HistoryLen {
			copy(hist, hist[1:])
			hist = hist[:len(hist)-1]
		}
	}
	p.histBuf = hist[:0]
}
