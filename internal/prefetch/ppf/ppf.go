// Package ppf implements Perceptron-based Prefetch Filtering (Bhatia et al.,
// ISCA 2019): an aggressively configured SPP proposes many candidates, and a
// hashed perceptron — one weight table per feature — accepts each candidate
// into the L2, demotes it to the LLC, or rejects it. The perceptron trains
// online from prefetch outcomes (useful / evicted-unused) and from demand
// misses that a rejected candidate would have covered.
package ppf

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
	"repro/internal/prefetch"
	"repro/internal/prefetch/spp"
	"repro/internal/slabpool"
)

// numFeatures is the number of perceptron feature tables.
const numFeatures = 7

// Config sizes PPF.
type Config struct {
	SPP           spp.Config // underlying proposer (aggressive thresholds)
	TableEntries  int        // entries per feature weight table (1024; a power of two, at most 1<<16)
	WeightMax     int        // weight saturation (±31)
	ThresholdHi   int        // sum ≥ → fill L2
	ThresholdLo   int        // sum ≥ → fill LLC, else reject
	TrainMargin   int        // retrain while |sum| below this margin
	RecordEntries int        // prefetch/reject recovery table entries (a power of two)
}

// DefaultConfig returns the configuration used throughout the evaluation.
func DefaultConfig() Config {
	sppCfg := spp.DefaultConfig()
	// The proposer runs with thresholds low enough to surface marginal
	// candidates; the perceptron is the actual gatekeeper.
	sppCfg.FillThreshold = 0.10
	sppCfg.LLCThreshold = 0.03
	sppCfg.MaxLookahead = 12
	return Config{
		SPP:           sppCfg,
		TableEntries:  1024,
		WeightMax:     31,
		ThresholdHi:   2,
		ThresholdLo:   -6,
		TrainMargin:   20,
		RecordEntries: 1024,
	}
}

// Scale returns a copy of c with table capacities multiplied by k.
func (c Config) Scale(k int) Config {
	c.SPP = c.SPP.Scale(k)
	c.TableEntries *= k
	c.RecordEntries *= k
	return c
}

// maxTableEntries bounds Config.TableEntries, so a feature index fits the
// uint16 a record stores.
const maxTableEntries = 1 << 16

// record remembers the feature indices of a recent decision so the outcome
// can train the same weights. tag is the decision's block address with
// recValid set; blocks are 64-byte aligned, so the bit is free, and the
// zero record is empty.
type record struct {
	tag mem.Addr
	idx [numFeatures]uint16
}

// recValid marks a live record in its tag.
const recValid = 1

// set makes r the live record of a decision on block. It narrows idx into
// r in place: a record built on the stack and copied in would reload the
// fresh 16-bit stores as wider words, which defeats store forwarding and
// was measured to slow PPF's classification.
func (r *record) set(block mem.Addr, idx [numFeatures]int) {
	r.tag = mem.BlockAlign(block) | recValid
	for i, j := range idx {
		r.idx[i] = uint16(j)
	}
}

// hit reports whether r is live and records block.
func (r *record) hit(block mem.Addr) bool { return r.tag == mem.BlockAlign(block)|recValid }

// features returns r's feature indices.
func (r *record) features() (idx [numFeatures]int) {
	for i, j := range r.idx {
		idx[i] = int(j)
	}
	return idx
}

// Prefetcher is a PPF instance.
type Prefetcher struct {
	cfg Config
	spp *spp.Prefetcher
	// slab owns w, pft and rjt; Release hands it to the next instance of the
	// same shape. w holds the feature weight tables back to back: feature
	// i's table is w[i*TableEntries : (i+1)*TableEntries].
	slab *slab
	w    []int8
	pft  []record // issued prefetches
	rjt  []record // rejected candidates

	// sink is the persistent candidate classifier Operate hands to the SPP
	// proposer; the per-call trigger context and downstream issue function
	// ride in opCtx/opIssue so the hot path allocates no closure. Operate is
	// not reentrant.
	sink    func(prefetch.Candidate, spp.Meta)
	opCtx   prefetch.Context
	opIssue func(prefetch.Candidate)
}

// New creates a PPF prefetcher; regionBits configures the underlying SPP's
// Signature Table granularity (PPF itself keys features on 4KB geometry).
func New(cfg Config, regionBits uint) *Prefetcher {
	if bits.OnesCount(uint(cfg.TableEntries)) != 1 || bits.OnesCount(uint(cfg.RecordEntries)) != 1 {
		panic(fmt.Sprintf("ppf: TableEntries %d and RecordEntries %d must be powers of two", cfg.TableEntries, cfg.RecordEntries))
	}
	if cfg.TableEntries > maxTableEntries {
		panic(fmt.Sprintf("ppf: TableEntries %d above %d, the largest a record's feature index holds", cfg.TableEntries, maxTableEntries))
	}
	s := slabs.Pool(slabKey(cfg)).Get()
	if s == nil {
		s = &slab{
			w:   make([]int8, numFeatures*cfg.TableEntries),
			pft: make([]record, cfg.RecordEntries),
			rjt: make([]record, cfg.RecordEntries),
		}
	}
	p := &Prefetcher{
		cfg:  cfg,
		spp:  spp.New(cfg.SPP, regionBits),
		slab: s,
		w:    s.w,
		pft:  s.pft,
		rjt:  s.rjt,
	}
	p.sink = p.classify
	return p
}

// slab is an instance's perceptron: the weight tables and the prefetch and
// reject records, each record table a 24 KB allocation (one 48 KB array
// would take the runtime's slower large-object path). A slab outlives its
// instance: Release clears it and hands it to the next instance with the
// same table sizes. The proposer's tables are the SPP's own slab.
type slab struct {
	w        []int8
	pft, rjt []record
}

// slabs pools perceptrons by slabKey.
var slabs slabpool.Table[slab]

// slabKey is the shape of cfg's perceptron.
func slabKey(cfg Config) uint64 { return slabpool.Key4(cfg.TableEntries, cfg.RecordEntries, 0, 0) }

// Release implements prefetch.Prefetcher: it releases the SPP proposer,
// clears the perceptron and offers it to the next instance of the same
// shape. Weights and records are hashed, with no mark of use that is cheaper
// to test than the array is to clear, so the whole perceptron is cleared.
func (p *Prefetcher) Release() {
	s := p.slab
	if s == nil {
		return
	}
	p.spp.Release()
	p.slab, p.w, p.pft, p.rjt = nil, nil, nil, nil
	if pool := slabs.Pool(slabKey(p.cfg)); pool != nil {
		clear(s.w)
		clear(s.pft)
		clear(s.rjt)
		pool.Put(s)
	}
}

// Factory adapts New to prefetch.Factory.
func Factory(cfg Config) prefetch.Factory {
	return func(regionBits uint) prefetch.Prefetcher { return New(cfg, regionBits) }
}

// hash maps x to one of entries slots, a power of two.
func hash(x uint64, entries int) int {
	x *= 0x9e3779b97f4a7c15
	x ^= x >> 32
	return int(x) & (entries - 1)
}

// features derives the perceptron feature indices for a candidate.
func (p *Prefetcher) features(ctx prefetch.Context, cand mem.Addr, m spp.Meta) [numFeatures]int {
	n := p.cfg.TableEntries
	confBucket := int(m.Confidence * 8)
	return [numFeatures]int{
		hash(uint64(ctx.PC), n),
		hash(uint64(ctx.PC)<<4^uint64(m.Depth), n),
		hash(uint64(mem.BlockOffsetInPage(cand, mem.Page4K)), n),
		hash(uint64(mem.PageNumber(cand, mem.Page4K))&0xffff, n),
		hash(uint64(m.Sig), n),
		hash(uint64(confBucket), n),
		hash(uint64(int64(m.Delta))+1<<20, n),
	}
}

func (p *Prefetcher) sum(idx [numFeatures]int) int {
	s := 0
	for i, j := range idx {
		s += int(p.w[i*p.cfg.TableEntries+j])
	}
	return s
}

func (p *Prefetcher) adjust(idx [numFeatures]int, up bool) {
	for i, j := range idx {
		wi := i*p.cfg.TableEntries + j
		w := int(p.w[wi])
		if up && w < p.cfg.WeightMax {
			w++
		} else if !up && w > -p.cfg.WeightMax-1 {
			w--
		}
		p.w[wi] = int8(w)
	}
}

func recIndex(block mem.Addr, entries int) int {
	return hash(uint64(mem.BlockNumber(block)), entries)
}

// Operate implements prefetch.Prefetcher.
func (p *Prefetcher) Operate(ctx prefetch.Context, issue func(prefetch.Candidate)) {
	p.opCtx, p.opIssue = ctx, issue
	p.spp.OperateMeta(ctx, p.sink)
}

// classify runs one SPP proposal through the perceptron and issues, demotes,
// or rejects it. It is the body of the persistent sink; the trigger context
// rides in opCtx/opIssue.
func (p *Prefetcher) classify(c prefetch.Candidate, m spp.Meta) {
	idx := p.features(p.opCtx, c.Addr, m)
	s := p.sum(idx)
	switch {
	case s >= p.cfg.ThresholdHi:
		p.pft[recIndex(c.Addr, p.cfg.RecordEntries)].set(c.Addr, idx)
		p.opIssue(prefetch.Candidate{Addr: c.Addr, FillL2: true})
	case s >= p.cfg.ThresholdLo:
		p.pft[recIndex(c.Addr, p.cfg.RecordEntries)].set(c.Addr, idx)
		p.opIssue(prefetch.Candidate{Addr: c.Addr, FillL2: false})
	default:
		p.rjt[recIndex(c.Addr, p.cfg.RecordEntries)].set(c.Addr, idx)
	}
}

// Train implements prefetch.Prefetcher.
func (p *Prefetcher) Train(ctx prefetch.Context) { p.spp.Train(ctx) }

// PrefetchUseful implements prefetch.FeedbackReceiver: strengthen the weights
// that accepted a prefetch that turned out useful.
func (p *Prefetcher) PrefetchUseful(block mem.Addr) {
	p.spp.PrefetchUseful(block)
	r := &p.pft[recIndex(block, p.cfg.RecordEntries)]
	if r.hit(block) {
		if idx := r.features(); p.sum(idx) < p.cfg.TrainMargin {
			p.adjust(idx, true)
		}
		r.tag = 0
	}
}

// PrefetchUnused implements prefetch.FeedbackReceiver: weaken the weights
// that accepted a prefetch evicted without use.
func (p *Prefetcher) PrefetchUnused(block mem.Addr) {
	p.spp.PrefetchUnused(block)
	r := &p.pft[recIndex(block, p.cfg.RecordEntries)]
	if r.hit(block) {
		if idx := r.features(); p.sum(idx) > -p.cfg.TrainMargin {
			p.adjust(idx, false)
		}
		r.tag = 0
	}
}

// DemandMiss implements prefetch.FeedbackReceiver: a miss on a block whose
// candidate was rejected means the perceptron was wrong to reject.
func (p *Prefetcher) DemandMiss(block mem.Addr) {
	r := &p.rjt[recIndex(block, p.cfg.RecordEntries)]
	if r.hit(block) {
		if idx := r.features(); p.sum(idx) < p.cfg.TrainMargin {
			p.adjust(idx, true)
		}
		r.tag = 0
	}
}
