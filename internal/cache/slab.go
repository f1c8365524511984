package cache

import (
	"repro/internal/recency"
	"repro/internal/slabpool"
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
// a fill, a line's dirty, prefetched or ready-cycle bits — happens
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

// slabs is the slab pool table, keyed by geometry, slabpool.Key(sets, ways).
var slabs slabpool.Table[slab]

// getSlab returns storage for a cache of the given geometry in its
// construction state: a released slab when the geometry's pool holds one, a
// newly allocated one otherwise.
func getSlab(sets, ways int) *slab {
	if s := slabs.Pool(slabpool.Key(sets, ways)).Get(); s != nil {
		return s
	}
	return newSlab(sets, ways)
}

// putSlab resets s and offers it to the geometry's pool, or drops it when
// the table holds no pool for the geometry.
func putSlab(sets, ways int, s *slab) {
	if p := slabs.Pool(slabpool.Key(sets, ways)); p != nil {
		s.reset(sets, ways)
		p.Put(s)
	}
}

// PooledGeometries returns how many cache geometries hold a slab pool, at
// most slabpool.MaxKeys.
func PooledGeometries() int { return slabs.Keys() }
