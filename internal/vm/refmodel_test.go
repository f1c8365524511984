package vm

import (
	"repro/internal/mem"
)

// Reference models for the translation structures: deliberately naive,
// map-backed implementations of the same contracts, which the property and
// fuzz tests drive in lockstep with the real dense-array structures.

// refKey names a radix node or leaf slot: the level and the virtual-address
// prefix that selects it.
type refKey struct {
	level int
	pfx   mem.Addr
}

// refPageTable keeps one map entry per radix node (its physical base) and per
// leaf. Nodes draw frames from the allocator in the same order the real table
// creates them, so a same-seeded allocator yields identical walk references.
type refPageTable struct {
	alloc  *Allocator
	nodes  map[refKey]mem.Addr
	leaves map[refKey]PTE
}

func newRefPageTable(alloc *Allocator) *refPageTable {
	r := &refPageTable{alloc: alloc, nodes: map[refKey]mem.Addr{}, leaves: map[refKey]PTE{}}
	r.nodes[nodeKey(levelPML4, 0)] = alloc.AllocPTNode()
	return r
}

// nodeKey identifies the node read at level: the address bits above the
// level's own 9-bit index.
func nodeKey(level int, v mem.Addr) refKey { return refKey{level, v >> (walkShift[level] + 9)} }

// slotKey identifies the entry read at level: the bits down to its index.
func slotKey(level int, v mem.Addr) refKey { return refKey{level, v >> walkShift[level]} }

func (r *refPageTable) Map(v mem.Addr, pte PTE) {
	last := leafLevel(pte.Size)
	for level := levelPML4; level < last; level++ {
		if _, ok := r.leaves[slotKey(level, v)]; ok {
			panic("ref: mapping below an existing leaf")
		}
		if _, ok := r.nodes[nodeKey(level+1, v)]; !ok {
			r.nodes[nodeKey(level+1, v)] = r.alloc.AllocPTNode()
		}
	}
	_, leaf := r.leaves[slotKey(last, v)]
	interior := false
	if last < levelPT {
		_, interior = r.nodes[nodeKey(last+1, v)]
	}
	if leaf || interior {
		panic("ref: double mapping")
	}
	pte.Valid = true
	r.leaves[slotKey(last, v)] = pte
}

func (r *refPageTable) Walk(v mem.Addr) (WalkResult, bool) {
	var res WalkResult
	for level := levelPML4; level < numLevels; level++ {
		res.Refs[level] = r.nodes[nodeKey(level, v)] + mem.Addr(vaIndex(v, level))*8
		res.Levels = level + 1
		if pte, ok := r.leaves[slotKey(level, v)]; ok {
			res.PTE = pte
			return res, true
		}
		if level == levelPT {
			break
		}
		if _, ok := r.nodes[nodeKey(level+1, v)]; !ok {
			break
		}
	}
	return WalkResult{}, false
}

func (r *refPageTable) Pages() int { return len(r.leaves) }

// refTLB is a set-associative LRU TLB stored as a map from set index to that
// set's ways, each way a plain struct. It probes every page size on every
// lookup.
type refTLB struct {
	sets, ways int
	tick       uint64
	set        map[int][]refTLBWay
	hits       uint64
	misses     uint64
	hitsBy     [mem.NumPageSizes]uint64
}

type refTLBWay struct {
	valid bool
	size  mem.PageSize
	vpn   mem.Addr
	frame mem.Addr
	lru   uint64
}

func newRefTLB(entries, ways int) *refTLB {
	return &refTLB{sets: entries / ways, ways: ways, set: map[int][]refTLBWay{}}
}

func (r *refTLB) waysOf(vpn mem.Addr) []refTLBWay {
	s := int(vpn % mem.Addr(r.sets))
	if r.set[s] == nil {
		r.set[s] = make([]refTLBWay, r.ways)
	}
	return r.set[s]
}

func (r *refTLB) Lookup(v mem.Addr) (Translation, bool) {
	r.tick++
	for _, size := range [3]mem.PageSize{mem.Page4K, mem.Page2M, mem.Page1G} {
		vpn := mem.PageNumber(v, size)
		ways := r.waysOf(vpn)
		for i := range ways {
			if w := &ways[i]; w.valid && w.size == size && w.vpn == vpn {
				w.lru = r.tick
				r.hits++
				r.hitsBy[size]++
				return Translation{PAddr: w.frame + v&(size.Bytes()-1), Size: size}, true
			}
		}
	}
	r.misses++
	return Translation{}, false
}

// Insert refreshes a duplicate, else replaces the first invalid way, else the
// first least-recently-used way.
func (r *refTLB) Insert(v mem.Addr, tr Translation) {
	r.tick++
	vpn := mem.PageNumber(v, tr.Size)
	ways := r.waysOf(vpn)
	for i := range ways {
		if w := &ways[i]; w.valid && w.size == tr.Size && w.vpn == vpn {
			w.lru = r.tick
			return
		}
	}
	victim := -1
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = 0
		for i := range ways {
			if ways[i].lru < ways[victim].lru {
				victim = i
			}
		}
	}
	ways[victim] = refTLBWay{valid: true, size: tr.Size, vpn: vpn, frame: mem.PageBase(tr.PAddr, tr.Size), lru: r.tick}
}

func (r *refTLB) Flush() { r.set = map[int][]refTLBWay{} }

// refWalkCache is a fully-associative LRU cache of (level, key) pairs held in
// a map from entry to its last-use stamp, evicting the oldest stamp when full.
type refWalkCache struct {
	n             int
	tick          uint64
	stamp         map[refKey]uint64
	hits, lookups uint64
}

func newRefWalkCache(n int) *refWalkCache { return &refWalkCache{n: n, stamp: map[refKey]uint64{}} }

func (r *refWalkCache) contains(level int, key mem.Addr) bool {
	r.lookups++
	r.tick++
	k := refKey{level, key}
	if _, ok := r.stamp[k]; ok {
		r.stamp[k] = r.tick
		r.hits++
		return true
	}
	return false
}

func (r *refWalkCache) insert(level int, key mem.Addr) {
	if r.n == 0 {
		return
	}
	r.tick++
	if len(r.stamp) == r.n {
		var oldest refKey
		min := ^uint64(0)
		for k, s := range r.stamp {
			if s < min {
				oldest, min = k, s
			}
		}
		delete(r.stamp, oldest)
	}
	r.stamp[refKey{level, key}] = r.tick
}
