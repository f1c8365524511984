// Package cache implements the set-associative cache substrate: tag arrays
// with LRU replacement, Miss Status Holding Registers (MSHRs) that bound
// outstanding misses and merge requests to in-flight blocks, prefetch fills
// with per-line provenance bits (used by the paper's set-dueling annotation),
// and observer hooks through which the prefetching engine in internal/core
// watches accesses and receives usefulness feedback.
//
// Timing model: Access computes a completion cycle by chaining through the
// next-level Port. Resource contention (MSHR occupancy, lower-level banks and
// buses) is modelled with next-free times, which preserves queueing behaviour
// while letting the simulator skip idle cycles.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
	"repro/internal/recency"
)

// ReplPolicy names a cache replacement policy. LRU, the policy of the
// paper's evaluation at every level (Table I), is the only one modelled: New
// panics on any other value, and sim.Config.Validate rejects one at the edge.
type ReplPolicy uint8

// ReplLRU is least-recently-used, the zero value.
const ReplLRU ReplPolicy = 0

// line is one cache block's state packed into one word: the fill-completion
// cycle in the low lineReadyBits bits, then the dirty and prefetched flags,
// two unused bits, the prefetcher ID and the core that triggered the fill.
// The block and validity live only in the dense tags array (tagInvalid ⇔
// invalid), which keeps the record at 8 bytes.
type line uint64

const (
	// lineReadyBits is the width of the fill-completion cycle: 2^44 cycles
	// is about 1.8·10^13, far beyond any simulated run.
	lineReadyBits   = 44
	lineReadyMask   = 1<<lineReadyBits - 1
	lineDirty       = 1 << lineReadyBits
	linePrefetched  = lineDirty << 1 // filled by a prefetch and not yet demanded
	linePrefIDShift = 48
	lineCoreShift   = 56
)

// newLine packs a freshly filled line's state.
func newLine(readyAt mem.Cycle, dirty, prefetched bool, prefID, core uint8) line {
	l := line(prefID)<<linePrefIDShift | line(core)<<lineCoreShift
	if dirty {
		l |= lineDirty
	}
	if prefetched {
		l |= linePrefetched
	}
	l.setReadyAt(readyAt)
	return l
}

// readyAt is the fill completion; hits before it merge with the fill.
func (l line) readyAt() mem.Cycle { return mem.Cycle(l & lineReadyMask) }

// setReadyAt stores the fill completion, refusing a cycle the word cannot
// hold rather than wrapping it into a wrong one.
func (l *line) setReadyAt(c mem.Cycle) {
	if uint64(c) > lineReadyMask {
		readyAtOverflow(c)
	}
	*l = *l&^lineReadyMask | line(c)
}

// readyAtOverflow is setReadyAt's panic, kept out of line so the setter
// stays inlinable.
//
//go:noinline
func readyAtOverflow(c mem.Cycle) {
	panic(fmt.Sprintf("cache: fill completion cycle %d exceeds the line word's %d-bit limit", c, lineReadyBits))
}

func (l line) dirty() bool      { return l&lineDirty != 0 }
func (l line) prefetched() bool { return l&linePrefetched != 0 }
func (l line) prefID() uint8    { return uint8(l >> linePrefIDShift) }
func (l line) core() uint8      { return uint8(l >> lineCoreShift) }

func (l *line) markDirty()       { *l |= lineDirty }
func (l *line) clearPrefetched() { *l &^= linePrefetched }

// Config describes one cache level.
type Config struct {
	Name        string
	Sets, Ways  int
	Latency     mem.Cycle // tag+data access latency
	MSHREntries int

	// Replacement must be ReplLRU, the only policy modelled.
	Replacement ReplPolicy

	// PromoteLatency enables prefetch-to-demand MSHR promotion: a demand
	// that merges with an in-flight *prefetch* fill re-issues the request
	// downstream at demand priority and completes at the earlier of the
	// prefetch's promised fill and the re-issued demand path (bounded below
	// by issue + Latency + PromoteLatency when there is no next level).
	// Zero disables promotion. Merges with in-flight demand fills are never
	// accelerated.
	PromoteLatency mem.Cycle
}

// Stats aggregates a cache's counters.
type Stats struct {
	Hits, Misses uint64 // all request types
	DemandHits   uint64
	DemandMisses uint64

	PrefetchIssued  uint64 // prefetch requests that allocated an MSHR here
	PrefetchUseful  uint64 // demand hits on prefetched lines
	PrefetchLate    uint64 // demand merged with an in-flight prefetch fill
	PrefetchUnused  uint64 // prefetched lines evicted without a demand hit
	PrefetchDropped uint64 // prefetches dropped for lack of a free MSHR entry

	Writebacks uint64

	// DemandLatencySum accumulates completion−issue for demand accesses so
	// Figure 10's access-latency metric can be derived.
	DemandLatencySum uint64
	DemandCount      uint64
}

// MPKI returns demand misses per kilo-instruction given an instruction count.
func (s *Stats) MPKI(instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(s.DemandMisses) / float64(instructions) * 1000
}

// AvgDemandLatency returns the mean demand access latency in cycles.
func (s *Stats) AvgDemandLatency() float64 {
	if s.DemandCount == 0 {
		return 0
	}
	return float64(s.DemandLatencySum) / float64(s.DemandCount)
}

// Accuracy returns useful/(useful+unused) prefetches, the paper's prefetching
// accuracy metric. Late prefetches count as useful.
func (s *Stats) Accuracy() float64 {
	denom := s.PrefetchUseful + s.PrefetchLate + s.PrefetchUnused
	if denom == 0 {
		return 0
	}
	return float64(s.PrefetchUseful+s.PrefetchLate) / float64(denom)
}

// Coverage returns the fraction of would-be demand misses eliminated by
// prefetching: useful / (useful + demand misses).
func (s *Stats) Coverage() float64 {
	denom := float64(s.PrefetchUseful) + float64(s.DemandMisses)
	if denom == 0 {
		return 0
	}
	return float64(s.PrefetchUseful) / denom
}

// AccessInfo is what an Observer sees for each access processed by the cache.
type AccessInfo struct {
	Req  *mem.Request
	Hit  bool
	At   mem.Cycle // issue cycle
	Done mem.Cycle // completion cycle
	Set  int       // set index of the accessed block
}

// Observer receives access and prefetch-feedback events. The prefetching
// engine (internal/core) implements it; all methods are optional via the
// embeddable NopObserver.
type Observer interface {
	// OnAccess fires for every request the cache processes (after hit/miss
	// resolution). Prefetch requests do not generate OnAccess.
	OnAccess(info AccessInfo)
	// OnPrefetchUseful fires when a demand access hits a prefetched line.
	// core is the core that issued the prefetch (relevant at a shared LLC).
	OnPrefetchUseful(block mem.Addr, prefID uint8, core int)
	// OnPrefetchUnused fires when a prefetched line is evicted untouched.
	OnPrefetchUnused(block mem.Addr, prefID uint8, core int)
}

// AccessSink is an optional Observer refinement: an observer whose OnAccess
// is a no-op (a feedback-only observer, like the LLC's prefetch-outcome
// router) returns false from WantsOnAccess, and the cache then skips the
// per-access OnAccess dispatch entirely. A level with no OnAccess consumer is
// also what arms the line-hit memo there. Observers without the method are
// assumed to consume every access.
type AccessSink interface{ WantsOnAccess() bool }

// wantsOnAccess resolves an observer's OnAccess interest (nil: none).
func wantsOnAccess(o Observer) bool {
	if o == nil {
		return false
	}
	if s, ok := o.(AccessSink); ok {
		return s.WantsOnAccess()
	}
	return true
}

// NopObserver implements Observer with no-ops; embed it to implement a
// subset of the interface.
type NopObserver struct{}

// OnAccess implements Observer.
func (NopObserver) OnAccess(AccessInfo) {}

// OnPrefetchUseful implements Observer.
func (NopObserver) OnPrefetchUseful(mem.Addr, uint8, int) {}

// OnPrefetchUnused implements Observer.
func (NopObserver) OnPrefetchUnused(mem.Addr, uint8, int) {}

// LifecycleKind classifies a prefetch lifecycle transition.
type LifecycleKind uint8

// Lifecycle transitions reported through LifecycleObserver.
const (
	// LifeFill is an issued prefetch allocating here: At is the issue cycle,
	// Done the fill-completion cycle.
	LifeFill LifecycleKind = iota + 1
	// LifeUse is the first demand hit on a prefetched line (Late: the hit
	// merged with the still-in-flight fill).
	LifeUse
	// LifeEvict is a prefetched line evicted without a demand hit.
	LifeEvict
	// LifeDrop is a prefetch dropped at the MSHR demand reserve.
	LifeDrop
)

// LifecycleEvent is one prefetch lifecycle transition at a cache.
type LifecycleEvent struct {
	Kind  LifecycleKind
	Block mem.Addr
	At    mem.Cycle // issue cycle (fill/drop) or event cycle (use/evict)
	Done  mem.Cycle // fill completion (fill events only)
	Late  bool      // use merged with the in-flight fill
	// Req is the request driving the transition: the prefetch itself for
	// fill/drop, the demand access for use, the fill triggering the eviction
	// for evict. It carries the page-size and boundary-crossing attribution.
	Req    *mem.Request
	PrefID uint8
	Core   uint8
}

// LifecycleObserver receives prefetch lifecycle events, attached with
// SetLifecycleObserver. The hot path pays only a nil check when tracing is
// off.
type LifecycleObserver interface {
	OnPrefetchLifecycle(cache string, ev LifecycleEvent)
}

// Cache is one level of the hierarchy.
type Cache struct {
	cfg Config
	// slab owns the storage that lines, tags, order, setGen and partial
	// view; it outlives the cache through Release (see slab.go).
	slab  *slab
	lines []line // sets × ways
	// tags holds each way's tag word — its block number, tagInvalid when the
	// way is empty — in a dense array parallel to lines. It is the only copy
	// of a line's block and validity, at 4 bytes per way, half a full
	// address.
	tags []uint32
	// order holds one recency word per set (see package recency). touchAt
	// and fill promote, so rank 0 is the set's most recently used way and
	// the tail is the LRU victim.
	order []uint64
	// fills counts fills, the only events that change tags; the negative
	// lookup memo is valid while it holds.
	fills uint64

	// setMask is Sets-1 when Sets is a power of two, replacing the modulo in
	// SetIndex with a mask on the hot path; zero selects the generic path
	// (the shared LLC's sets scale with core count and may not stay pow2).
	setMask mem.Addr

	// wbPool supplies the scratch request for dirty-victim writebacks: the
	// downstream Access completes synchronously and never retains the request.
	wbPool mem.RequestPool
	// prPool supplies the scratch copy for prefetch-promotion re-issues, the
	// same synchronous-downstream lifetime as wbPool.
	prPool mem.RequestPool

	// mshrFree holds the next-free cycle of each MSHR entry. A request that
	// finds every entry busy stalls until the earliest one frees — this is
	// how MSHR pressure throttles both demands and prefetches (Fig. 12A).
	mshrFree []mem.Cycle
	// pfDropUntil is a proven drop watermark for the prefetch reserve check:
	// when the last full scan found free ≤ reserve, no entry frees before the
	// earliest busy completion seen, and slot values only ever grow — so any
	// prefetch arriving before that cycle must drop too, without rescanning.
	pfDropUntil mem.Cycle
	// mshrMaxDone is the largest completion time ever written into mshrFree
	// (monotone upper bound on every slot): a request at or past it proves the
	// whole pool free without a scan.
	mshrMaxDone mem.Cycle

	// lastMissBlock/lastMissFills memoize the most recent failed lookup. Tags
	// change only in fill, which bumps fills, so an equal (block, fills) pair
	// proves the block is still absent: the Contains probe right before a
	// prefetch issue makes the issue's own lookup a guaranteed miss, and the
	// memo skips that second set scan.
	lastMissBlock mem.Addr
	lastMissFills uint64
	// partial packs one hashed byte per way into uint64 words (partialWords
	// words per set), so a probe rejects a whole set with one XOR and a SWAR
	// zero-byte test and verifies only flagged candidate ways against the full
	// tag array.
	partial      []uint64
	partialWords int

	// setGen[s] counts every replacement-state mutation of set s (any touch
	// or fill). The hit memo records the generation it was formed under; an
	// unchanged generation proves nothing in the set moved since, so the
	// memoed way, its recency, and the victim ordering are all still exact.
	setGen []uint64
	// memoBlock..memoReady are the line-grain hit memo (levels with no
	// OnAccess consumer): a completed demand hit on a non-prefetched
	// line records (block, set, way, generation), and while the generation
	// holds, repeat accesses to the same block short-circuit the tag probe,
	// the replacement update, and the observer dispatch. Skipping the recency
	// update is exact: a valid memo proves the set untouched since formation,
	// so the memoed way is still at rank 0 of the set's order word, where
	// promoting it again changes nothing.
	memoBlock mem.Addr
	memoSet   int
	memoGI    int
	memoGen   uint64
	memoReady mem.Cycle

	next mem.Port
	// nextCache is the devirtualized next level, linked at construction when
	// next is itself a *Cache: the miss descent then runs through direct
	// calls instead of interface dispatch.
	nextCache *Cache
	observer  Observer
	// accObs is the observer iff it consumes OnAccess (see AccessSink);
	// feedback-only observers leave it nil and the hot path skips dispatch.
	accObs Observer
	// life receives prefetch lifecycle events (see SetLifecycleObserver).
	life LifecycleObserver

	Stats Stats
}

// New creates a cache over the given next level. next may be nil for leaf
// testing (misses then cost only the local latency). Its storage comes from
// the slab pool when a released cache of the same geometry left one there,
// and is allocated otherwise; Release hands it back.
func New(cfg Config, next mem.Port) *Cache {
	if cfg.Sets <= 0 || cfg.Ways <= 0 {
		panic(fmt.Sprintf("cache %s: bad geometry %d×%d", cfg.Name, cfg.Sets, cfg.Ways))
	}
	if cfg.Ways > recency.MaxWays {
		panic(fmt.Sprintf("cache %s: %d ways, the recency order holds at most %d", cfg.Name, cfg.Ways, recency.MaxWays))
	}
	if cfg.MSHREntries <= 0 {
		panic(fmt.Sprintf("cache %s: MSHR entries must be positive", cfg.Name))
	}
	if cfg.Replacement != ReplLRU {
		panic(fmt.Sprintf("cache %s: replacement policy %d, only LRU (0) is modelled", cfg.Name, cfg.Replacement))
	}
	return newOn(cfg, next, getSlab(cfg.Sets, cfg.Ways))
}

// newOn builds a cache over next on storage s, which must be in its
// construction state (newSlab's, or a reset one) for cfg's geometry.
func newOn(cfg Config, next mem.Port, s *slab) *Cache {
	// order, setGen and partial are carved from the slab's one word array,
	// with capacities capped so none can grow into the next.
	sets := cfg.Sets
	c := &Cache{
		cfg:          cfg,
		slab:         s,
		lines:        s.lines,
		tags:         s.tags,
		order:        s.words[:sets:sets],
		mshrFree:     make([]mem.Cycle, cfg.MSHREntries),
		partial:      s.words[2*sets:],
		partialWords: partialWords(cfg.Ways),
		setGen:       s.words[sets : 2*sets : 2*sets],
		next:         next,
	}
	c.nextCache, _ = next.(*Cache)
	c.lastMissBlock = noBlock
	c.memoBlock = noBlock
	if cfg.Sets&(cfg.Sets-1) == 0 {
		c.setMask = mem.Addr(cfg.Sets - 1)
	}
	return c
}

// Release returns the cache's storage to the slab pool for the next cache of
// the same geometry. The cache must not be used afterwards: its slices are
// nil, so an access, Contains or InFlight panics instead of reading storage
// another cache now owns. Stats, Name, Sets and MSHRBusy (the MSHR table
// stays with the cache) remain readable. Releasing twice is a no-op. A cache
// whose simulation panicked should be dropped, not released: its sets may
// have been left half-mutated.
func (c *Cache) Release() {
	if s := c.detach(); s != nil {
		putSlab(c.cfg.Sets, c.cfg.Ways, s)
	}
}

// detach takes the storage away from the cache, nil once detached.
func (c *Cache) detach() *slab {
	s := c.slab
	c.slab, c.lines, c.tags, c.order, c.setGen, c.partial = nil, nil, nil, nil, nil, nil
	return s
}

// partialWords is the number of packed partial-tag words per set.
func partialWords(ways int) int { return (ways + 7) / 8 }

// tagInvalid marks an empty way in the tag array. tagOf never returns it, so
// it cannot collide with a real block's tag word.
const tagInvalid = ^uint32(0)

// AddrLimit bounds the physical addresses a cache can hold, 2^38 − 64: a
// block's tag word is its 32-bit block number, and the all-ones word is
// tagInvalid. Every address a cache sees must stay below it. A fill past it
// panics (tagOf); a probe past it is not checked — its truncated word could
// match another block or an empty way — because the check, on the lookup
// path of every access, was measured to cost figure throughput.
// sim.Config.Validate bounds physical memory below the limit instead.
const AddrLimit = mem.Addr(tagInvalid) << mem.BlockBits

// noBlock is the memos' empty value: it is not block-aligned, so no probe
// ever matches it.
const noBlock = ^mem.Addr(0)

// tagOf converts a block address to the tag word the tags array stores: its
// block number. A block at or above AddrLimit panics rather than alias onto
// another block or onto an empty way, the way the line word bounds fill
// cycles at 2^44; sim.Config.Validate keeps physical memory below the limit.
func tagOf(block mem.Addr) uint32 {
	n := mem.BlockNumber(block)
	if n >= mem.Addr(tagInvalid) {
		tagOverflow(block)
	}
	return uint32(n)
}

// tagOverflow is tagOf's panic, kept out of line so tagOf stays inlinable.
//
//go:noinline
func tagOverflow(block mem.Addr) {
	panic(fmt.Sprintf("cache: block %#x is past the tag word's limit: physical addresses must stay below 2^38 - 64", block))
}

// blockOf is tagOf's inverse: the block address a valid tag word names.
func blockOf(tag uint32) mem.Addr { return mem.Addr(tag) << mem.BlockBits }

// SetObserver attaches the access/feedback observer.
func (c *Cache) SetObserver(o Observer) {
	c.observer = o
	c.accObs = nil
	if wantsOnAccess(o) {
		c.accObs = o
	}
}

// SetLifecycleObserver attaches (or, with nil, detaches) the prefetch
// lifecycle sink without touching the access/feedback observer. This keeps
// lifecycle consumers — the telemetry tracer — off the per-access OnAccess
// dispatch path entirely: they cost a nil check except when a prefetched
// block changes state.
func (c *Cache) SetLifecycleObserver(lo LifecycleObserver) {
	c.life = lo
}

// MSHRBusy returns how many MSHR entries are occupied at cycle `at` (a
// telemetry gauge: sampled at epoch boundaries it exposes miss-level
// parallelism pressure).
func (c *Cache) MSHRBusy(at mem.Cycle) int {
	busy := 0
	for _, f := range c.mshrFree {
		if f > at {
			busy++
		}
	}
	return busy
}

// Sets returns the number of sets (used for set-dueling leader mapping).
func (c *Cache) Sets() int { return c.cfg.Sets }

// SetIndex returns the set index for an address.
func (c *Cache) SetIndex(a mem.Addr) int {
	if c.setMask != 0 {
		return int(mem.BlockNumber(a) & c.setMask)
	}
	return int(mem.BlockNumber(a)) % c.cfg.Sets
}

func (c *Cache) find(block mem.Addr) *line {
	return c.findAt(c.SetIndex(block), block)
}

// findAt is find with the set index already computed: the access path derives
// it once per request and reuses it for the lookup, the observer callback, and
// the fill.
func (c *Cache) findAt(si int, block mem.Addr) *line {
	if gi := c.findIdx(si, block); gi >= 0 {
		return &c.lines[gi]
	}
	return nil
}

// findIdx returns the global way index of block in set si, or -1: index form
// of findAt, for paths that also update the dense replacement mirrors.
func (c *Cache) findIdx(si int, block mem.Addr) int {
	// Probe order: the most-recently-used way — rank 0 of the recency word —
	// first (one load and compare: hit-heavy sets resolve here, and the
	// repeat-hit memo in access() already absorbed the hottest repeats before
	// this point), then the register-only negative memo, then the packed
	// partial array — an eighth of the tag array's footprint — so on a miss
	// the full tags are never scanned, only touched to verify a candidate.
	// Tags are unique within a set, so the order changes only which compare
	// finds the way, never the index returned.
	tag := uint32(mem.BlockNumber(block)) // block < AddrLimit: see AddrLimit
	base := si * c.cfg.Ways
	if m := base + recency.Way(c.order[si], 0); c.tags[m] == tag {
		return m
	}
	if block == c.lastMissBlock && c.fills == c.lastMissFills {
		return -1
	}
	return c.findIdxPacked(si, base, block, tag)
}

// SWAR constants for the packed partial-tag probe (byte lanes): lane
// replication and the per-lane high bits of the classic zero-lane detector.
const (
	swarLanes = 0x0101010101010101
	swarHigh  = 0x8080808080808080
)

// partialOf hashes a block address to its one-byte partial tag. Any function
// works for correctness (candidates are verified against the full tags); the
// multiplicative hash keeps false-positive verifies rare and is independent
// of the set-index width, so one formula serves every level.
func partialOf(block mem.Addr) uint64 {
	return uint64(block) * 0x9e3779b97f4a7c15 >> 56
}

// findIdxPacked is the partial-tag set probe: XOR the set's packed partial
// tags against the replicated probe byte, flag zero bytes with the SWAR
// detector (no false negatives; rare false positives from the borrow chain),
// and verify flagged ways against the full tag array (tag is block's tag
// word). Tags are unique within a set, so at most one verify succeeds and
// probe order cannot change the result.
func (c *Cache) findIdxPacked(si, base int, block mem.Addr, tag uint32) int {
	pat := partialOf(block) * swarLanes
	w0 := si * c.partialWords
	for wi := 0; wi < c.partialWords; wi++ {
		x := c.partial[w0+wi] ^ pat
		m := (x - swarLanes) &^ x & swarHigh
		for m != 0 {
			way := wi<<3 + bits.TrailingZeros64(m)>>3
			if way < c.cfg.Ways && c.tags[base+way] == tag {
				return base + way
			}
			m &= m - 1
		}
	}
	c.lastMissBlock, c.lastMissFills = block, c.fills
	return -1
}

// setPartial stores way's partial-tag byte in the packed probe array.
func (c *Cache) setPartial(si, way int, p uint64) {
	i := si*c.partialWords + way>>3
	sh := uint(way&7) * 8
	c.partial[i] = c.partial[i]&^(0xFF<<sh) | p<<sh
}

// Contains reports whether block is present (valid) in the cache, including
// lines whose fill is still in flight.
func (c *Cache) Contains(block mem.Addr) bool {
	return c.find(mem.BlockAlign(block)) != nil
}

// InFlight reports whether block is present but its fill has not completed by
// cycle at.
func (c *Cache) InFlight(block mem.Addr, at mem.Cycle) bool {
	l := c.find(mem.BlockAlign(block))
	return l != nil && l.readyAt() > at
}

// TryDropPrefetch accounts a proven MSHR-reserve drop for a prefetch issued
// at cycle `at` whose block is known absent (the caller just probed it):
// when the drop watermark proves the lookup would find the free pool at or
// below the demand reserve — lookup completes before both the proven-drop
// horizon and the earliest possible all-free time — the prefetch's only
// effect is the drop counter, so the caller can skip building the request
// and walking the access path. Returns false (caller issues normally) when
// the drop is not provable or a lifecycle tracer is attached (the drop event
// needs the full request).
func (c *Cache) TryDropPrefetch(at mem.Cycle) bool {
	if c.life != nil {
		return false
	}
	lookupDone := at + c.cfg.Latency
	if lookupDone < c.mshrMaxDone && lookupDone < c.pfDropUntil {
		c.Stats.PrefetchDropped++
		return true
	}
	return false
}

// allocMSHR reserves the earliest-free MSHR entry at or after `at` and
// returns the cycle at which the miss may proceed. The entry is tentatively
// held; the caller must release it by storing the final completion time.
func (c *Cache) allocMSHR(at mem.Cycle) (idx int, start mem.Cycle) {
	if at >= c.mshrMaxDone {
		// Every slot value is ≤ mshrMaxDone, so the whole pool is free and the
		// scan below would return its first entry at `at`.
		return 0, at
	}
	best := 0
	for i, f := range c.mshrFree {
		if f <= at {
			return i, at
		}
		if f < c.mshrFree[best] {
			best = i
		}
	}
	return best, c.mshrFree[best]
}

// victim picks the replacement victim way of set si: the tail of its
// recency order, which is the first invalid way while any remain (see order).
func (c *Cache) victim(si int) int {
	return recency.Way(c.order[si], c.cfg.Ways-1)
}

// touchAt updates replacement state on a hit of the way at global index gi in
// set si. Bumping the set generation invalidates any hit memo formed there.
func (c *Cache) touchAt(si, gi int) {
	c.order[si] = recency.Promote(c.order[si], gi-si*c.cfg.Ways)
	c.setGen[si]++
}

// forward sends a request to the next level: through the devirtualized
// concrete chain when the next level is a cache, the Port interface
// otherwise. Callers have already checked next != nil.
func (c *Cache) forward(req *mem.Request, at mem.Cycle) mem.Cycle {
	if c.nextCache != nil {
		return c.nextCache.access(req, at, true)
	}
	return c.next.Access(req, at)
}

// fill installs block into the cache with the given fill-completion time,
// evicting (and writing back) the victim. The writeback is injected at the
// triggering access's present time `now`, not at the future fill time:
// requests are processed in program order, and future-stamped traffic would
// poison the monotonic next-free state of shared downstream resources.
func (c *Cache) fill(si int, block mem.Addr, readyAt, now mem.Cycle, req *mem.Request) {
	tag := tagOf(block) // before the eviction: a refused block changes nothing
	vi := c.victim(si)
	gi := si*c.cfg.Ways + vi
	v := &c.lines[gi]
	if oldTag := c.tags[gi]; oldTag != tagInvalid {
		old := blockOf(oldTag)
		if v.prefetched() {
			c.Stats.PrefetchUnused++
			if c.observer != nil {
				c.observer.OnPrefetchUnused(old, v.prefID(), int(v.core()))
			}
			if c.life != nil {
				c.life.OnPrefetchLifecycle(c.cfg.Name, LifecycleEvent{
					Kind: LifeEvict, Block: old, At: now, Req: req,
					PrefID: v.prefID(), Core: v.core(),
				})
			}
		}
		if v.dirty() {
			c.Stats.Writebacks++
			if c.next != nil {
				wb := c.wbPool.GetDirty()
				*wb = mem.Request{PAddr: old, Type: mem.Writeback, Core: req.Core}
				c.forward(wb, now) // occupies downstream bandwidth
			}
		}
	}
	c.fills++
	c.tags[gi] = tag
	c.order[si] = recency.Promote(c.order[si], vi)
	c.setGen[si]++
	c.setPartial(si, vi, partialOf(block))
	*v = newLine(readyAt, req.Type == mem.Store || req.Type == mem.Writeback,
		req.Type == mem.Prefetch, req.PrefID, uint8(req.Core))
}

// Access implements mem.Port. It resolves hit/miss, models MSHR occupancy and
// merging, fills on miss, and returns the completion cycle. Prefetch requests
// follow the same path but never notify OnAccess, hit-drop silently, and — at
// a level where FillL2 is false (L2 directing the fill to the LLC) — the
// caller should use AccessNoFill instead.
func (c *Cache) Access(req *mem.Request, at mem.Cycle) mem.Cycle {
	return c.access(req, at, true)
}

// AccessNoFill behaves like Access but does not install the block in this
// cache on a miss: the request still occupies an MSHR entry here and fills
// every level below. This models L2 prefetches whose confidence directs the
// block into the LLC only.
func (c *Cache) AccessNoFill(req *mem.Request, at mem.Cycle) mem.Cycle {
	return c.access(req, at, false)
}

func (c *Cache) access(req *mem.Request, at mem.Cycle, fillHere bool) mem.Cycle {
	block := mem.BlockAlign(req.PAddr)

	// Line-hit memo: a repeat access to the last demand-hit block, in a set
	// nothing has touched since (generation match) and past the line's fill
	// completion, resolves without the tag probe, the replacement update, or
	// the observer dispatch. Only armed at levels with no OnAccess consumer
	// (every demand access there must otherwise reach the prefetch engine) —
	// see the memo field docs for why skipping the LRU bump is exact.
	if block == c.memoBlock && c.memoGen == c.setGen[c.memoSet] &&
		at >= c.memoReady && c.accObs == nil {
		switch req.Type {
		case mem.Prefetch:
			// Prefetching an already-present block is a silent drop.
			return at + c.cfg.Latency
		case mem.Store, mem.Writeback:
			c.lines[c.memoGI].markDirty()
		}
		if req.Type != mem.Writeback {
			c.Stats.Hits++
			c.Stats.DemandHits++
			c.Stats.DemandLatencySum += uint64(c.cfg.Latency)
			c.Stats.DemandCount++
		}
		return at + c.cfg.Latency
	}

	demand := req.Type.IsDemand() || req.Type == mem.PageWalk

	if req.Type == mem.Writeback {
		// Writebacks update in place on hit or forward below; they carry no
		// completion dependence for the core.
		si := c.SetIndex(block)
		if gi := c.findIdx(si, block); gi >= 0 {
			c.lines[gi].markDirty()
			c.touchAt(si, gi)
			return at + c.cfg.Latency
		}
		if c.next != nil {
			return c.forward(req, at+c.cfg.Latency)
		}
		return at + c.cfg.Latency
	}

	lookupDone := at + c.cfg.Latency
	si := c.SetIndex(block)
	if gi := c.findIdx(si, block); gi >= 0 {
		l := &c.lines[gi]
		done := lookupDone
		readyAt := l.readyAt()
		merged := readyAt > at // fill still in flight: MSHR merge semantics
		if merged && readyAt > done {
			done = readyAt
			if l.prefetched() && demand && c.cfg.PromoteLatency > 0 && c.next != nil &&
				readyAt-lookupDone > c.cfg.PromoteLatency {
				// The prefetch is scheduled further out than a fresh demand
				// path: promote it by re-issuing the request downstream as a
				// demand. The re-issue consumes real downstream capacity
				// (mild traffic overcount, but promotion is rare — only
				// deeply queued prefetches qualify), so promotion can never
				// manufacture bandwidth.
				re := c.prPool.Get()
				*re = *req
				if promoted := c.forward(re, lookupDone); promoted < done {
					done = promoted
					l.setReadyAt(promoted)
				}
			}
		}
		c.touchAt(si, gi)
		if req.Type == mem.Store {
			l.markDirty()
		}
		if req.Type == mem.Prefetch {
			// Prefetching an already-present block is a silent drop.
			return done
		}
		c.Stats.Hits++
		if demand {
			c.Stats.DemandHits++
			c.Stats.DemandLatencySum += uint64(done - at)
			c.Stats.DemandCount++
			if l.prefetched() {
				l.clearPrefetched()
				if merged {
					c.Stats.PrefetchLate++
				} else {
					c.Stats.PrefetchUseful++
				}
				if c.observer != nil {
					c.observer.OnPrefetchUseful(block, l.prefID(), int(l.core()))
				}
				if c.life != nil {
					c.life.OnPrefetchLifecycle(c.cfg.Name, LifecycleEvent{
						Kind: LifeUse, Block: block, At: done, Late: merged,
						Req: req, PrefID: l.prefID(), Core: l.core(),
					})
				}
			}
			if c.accObs == nil && !merged {
				// Arm the memo for repeat hits: the line is valid, ready, and
				// (after the use accounting above) no longer prefetched.
				c.memoBlock, c.memoSet, c.memoGI = block, si, gi
				c.memoGen = c.setGen[si]
				c.memoReady = l.readyAt()
			}
		}
		if c.accObs != nil {
			c.accObs.OnAccess(AccessInfo{Req: req, Hit: true, At: at, Done: done, Set: si})
		}
		return done
	}

	// Miss path: take an MSHR entry (stalling if all are busy), forward the
	// request below, and fill on return. Prefetches never stall demands: a
	// quarter of the MSHR entries is reserved for demand misses, and a
	// prefetch that cannot allocate outside the reserve is dropped, so a
	// lookahead burst cannot head-block the demand stream. The prefetch path
	// folds the reserve count and the allocation into one scan of the pool.
	var idx int
	start := lookupDone
	if req.Type == mem.Prefetch {
		free, firstFree := 0, -1
		reserve := c.cfg.MSHREntries / 4
		if lookupDone >= c.mshrMaxDone {
			// Whole pool provably free: the scan would stop at free = reserve+1
			// with the first entry as the allocation target.
			free, firstFree = reserve+1, 0
		} else if lookupDone >= c.pfDropUntil {
			minBusy := mem.Cycle(1) << 62
			for i, f := range c.mshrFree {
				if f <= lookupDone {
					free++
					if firstFree < 0 {
						firstFree = i
					}
					if free > reserve {
						break // enough free entries proven; exact count not needed
					}
				} else if f < minBusy {
					minBusy = f
				}
			}
			if free <= reserve {
				// Nothing frees before minBusy and slot values only grow, so
				// every prefetch arriving before then drops without a scan.
				c.pfDropUntil = minBusy
			}
		}
		if free <= reserve {
			c.Stats.PrefetchDropped++
			if c.life != nil {
				c.life.OnPrefetchLifecycle(c.cfg.Name, LifecycleEvent{
					Kind: LifeDrop, Block: block, At: at, Req: req,
					PrefID: req.PrefID, Core: uint8(req.Core),
				})
			}
			return lookupDone
		}
		idx = firstFree // free > 0 here: the reserve is at least one entry
	} else {
		idx, start = c.allocMSHR(lookupDone)
	}
	c.Stats.Misses++
	if demand {
		c.Stats.DemandMisses++
	}
	if req.Type == mem.Prefetch {
		c.Stats.PrefetchIssued++
	}
	done := start
	if c.next != nil {
		done = c.forward(req, start)
	}
	c.mshrFree[idx] = done
	if done > c.mshrMaxDone {
		c.mshrMaxDone = done
	}
	if fillHere {
		c.fill(si, block, done, start, req)
	}
	if demand {
		c.Stats.DemandLatencySum += uint64(done - at)
		c.Stats.DemandCount++
	}
	if req.Type == mem.Prefetch && fillHere && c.life != nil {
		// Levels that do not install the block (AccessNoFill) stay silent:
		// the level that fills — the LLC for low-confidence candidates —
		// records its own fill event.
		c.life.OnPrefetchLifecycle(c.cfg.Name, LifecycleEvent{
			Kind: LifeFill, Block: block, At: at, Done: done, Req: req,
			PrefID: req.PrefID, Core: uint8(req.Core),
		})
	}
	if req.Type != mem.Prefetch && c.accObs != nil {
		c.accObs.OnAccess(AccessInfo{Req: req, Hit: false, At: at, Done: done, Set: si})
	}
	return done
}
