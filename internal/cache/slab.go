package cache

import (
	"sync"
	"sync/atomic"

	"repro/internal/recency"
)

// slab is a cache's storage: the line words and the tag array (sets × ways
// each) and one word slab carved into the order, setGen and partial arrays
// (one allocation instead of three; see newOn). A slab outlives the cache
// that used it: Release resets it and hands it to the next cache of the same
// geometry, so a process running simulation after simulation allocates the
// arrays once per geometry and goroutine in flight instead of once per cache.
type slab struct {
	lines []line
	tags  []uint32
	// words holds order (sets words), then setGen (sets words), then partial
	// (partialWords per set).
	words []uint64
}

// newSlab allocates a slab in its construction state: every way invalid,
// zero line words and partial tags, each set's order at recency.Initial and
// its generation at zero.
func newSlab(sets, ways int) *slab {
	s := &slab{
		lines: make([]line, sets*ways),
		tags:  make([]uint32, sets*ways),
		words: make([]uint64, (2+partialWords(ways))*sets),
	}
	for i := range s.tags {
		s.tags[i] = tagInvalid
	}
	order := recency.Initial(ways)
	for i := range s.words[:sets] {
		s.words[i] = order
	}
	return s
}

// reset restores the construction state. Every mutation of a set — a touch,
// a fill, a line's dirty, prefetched, RRPV or ready-cycle bits — happens
// together with a bump of the set's generation (see touchAt and fill), so a
// set whose generation is still zero is untouched and skipped: the reset
// costs the sets the run used, not the cache's capacity.
func (s *slab) reset(sets, ways int) {
	pw := partialWords(ways)
	order, setGen, partial := s.words[:sets], s.words[sets:2*sets], s.words[2*sets:]
	initial := recency.Initial(ways)
	for si, g := range setGen {
		if g == 0 {
			continue
		}
		clear(s.lines[si*ways : (si+1)*ways])
		tags := s.tags[si*ways : (si+1)*ways]
		for i := range tags {
			tags[i] = tagInvalid
		}
		clear(partial[si*pw : (si+1)*pw])
		order[si] = initial
		setGen[si] = 0
	}
}

// MaxPooledGeometries bounds the slab pool table: the first this many
// distinct geometries (sets, ways) a process constructs get a pool, and
// caches of any later geometry allocate their storage and drop it on Release.
// The figures use about ten; the bound keeps a daemon that accepts arbitrary
// validated geometries from growing the table without limit.
const MaxPooledGeometries = 16

// slabPools is the pool table, one entry per geometry. An entry's geom is
// its key (sets<<32 | ways), zero while the entry is unclaimed; a claimed
// entry is never reassigned. Entries hold *slab, so neither Get nor Put
// allocates, and sync.Pool drops what it holds over two collections, so the
// pools retain nothing across an idle process's garbage collections.
var slabPools [MaxPooledGeometries]struct {
	geom atomic.Uint64
	pool sync.Pool
}

// slabPool returns the pool for a geometry, claiming a free entry on first
// use, or nil when every entry holds another geometry.
func slabPool(sets, ways int) *sync.Pool {
	key := uint64(sets)<<32 | uint64(ways)
	for i := range slabPools {
		e := &slabPools[i]
		g := e.geom.Load()
		if g == 0 {
			if e.geom.CompareAndSwap(0, key) {
				return &e.pool
			}
			g = e.geom.Load() // another goroutine claimed the entry first
		}
		if g == key {
			return &e.pool
		}
	}
	return nil
}

// filler is what putSlab parks in a pool's per-processor private slot ahead
// of each slab. sync.Pool gives every processor one private slot that other
// processors cannot reach, and a slab left there is lost to a goroutine that
// resumes on another processor — after a collection, on two processors,
// about half the time — until the victim cache drops it at the next
// collection. With the slot taken by the filler, the slab goes to the
// processor's shared chain, which every processor steals from, victim cache
// included. getSlab skips fillers.
var filler = new(slab)

// getSlab returns storage for a cache of the given geometry in its
// construction state: a released slab when the geometry's pool holds one, a
// newly allocated one otherwise.
func getSlab(sets, ways int) *slab {
	if p := slabPool(sets, ways); p != nil {
		for x := p.Get(); x != nil; x = p.Get() {
			if s := x.(*slab); s != filler {
				return s
			}
		}
	}
	return newSlab(sets, ways)
}

// putSlab resets s and offers it to the geometry's pool, or drops it when
// the geometry has no pool.
func putSlab(sets, ways int, s *slab) {
	p := slabPool(sets, ways)
	if p == nil {
		return
	}
	s.reset(sets, ways)
	p.Put(filler)
	p.Put(s)
}

// PooledGeometries returns how many geometries hold a slab pool, at most
// MaxPooledGeometries.
func PooledGeometries() int {
	n := 0
	for i := range slabPools {
		if slabPools[i].geom.Load() != 0 {
			n++
		}
	}
	return n
}
