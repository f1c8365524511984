// Package slabpool recycles a simulation's fixed host storage — cache slabs,
// the frame allocator's bitmap, page-table node slabs, TLB arrays, the core's
// reorder buffer and trace batch, the prefetchers' tables — between
// simulations. A process runs
// simulation after simulation, and each one sizes its storage by a
// configuration that repeats: a Table keeps one sync.Pool per storage shape,
// so the storage is allocated once per shape and goroutine in flight instead
// of once per simulation.
//
// A Table's pools hold *T, so neither Get nor Put allocates, and sync.Pool
// drops what it holds over two collections: the pools retain nothing across
// an idle process's garbage collections.
package slabpool

import (
	"sync"
	"sync/atomic"
)

// MaxKeys bounds a Table: the first this many distinct keys a process uses
// get a pool, and storage of any later shape is allocated by its user and
// dropped on release. The figures use a few shapes per kind of storage; the
// bound keeps a daemon that accepts arbitrary validated configurations from
// growing a table without limit.
const MaxKeys = 16

// Table maps a storage shape, packed into a non-zero uint64 key, to a pool
// of *T in that shape. Its zero value is ready to use; a table is declared
// once per kind of storage, as a package-level variable.
type Table[T any] struct {
	// An entry's key is zero while the entry is unclaimed; a claimed entry
	// is never reassigned, so a lookup is a scan of at most MaxKeys atomic
	// loads, with no lock, no map and no allocation.
	entries [MaxKeys]struct {
		key  atomic.Uint64
		pool Pool[T]
	}
}

// Pool is one shape's pool. A nil *Pool, which Table.Pool returns when the
// table is full, holds nothing: Get returns nil and Put drops.
type Pool[T any] struct{ p sync.Pool }

// Pool returns key's pool, claiming a free entry on first use, or nil when
// every entry holds another key or key is zero, the key of no pool.
func (t *Table[T]) Pool(key uint64) *Pool[T] {
	if key == 0 {
		return nil
	}
	for i := range t.entries {
		e := &t.entries[i]
		k := e.key.Load()
		if k == 0 {
			if e.key.CompareAndSwap(0, key) {
				return &e.pool
			}
			k = e.key.Load() // another goroutine claimed the entry first
		}
		if k == key {
			return &e.pool
		}
	}
	return nil
}

// Key packs a two-number shape, such as a cache's sets and ways, into a
// table key. Both must be positive and below 2^32.
func Key(a, b int) uint64 { return uint64(a)<<32 | uint64(b) }

// Key4 packs a shape of up to four numbers, such as a prefetcher's table
// sizes, into a table key. It returns zero, the key of no pool, when a number
// is negative or above 0xFFFF: storage of such a shape is allocated by its
// user and dropped on release.
func Key4(a, b, c, d int) uint64 {
	var k uint64
	for _, n := range [4]int{a, b, c, d} {
		if n < 0 || n > 0xFFFF {
			return 0
		}
		k = k<<16 | uint64(n)
	}
	return k
}

// Keys returns how many keys hold a pool, at most MaxKeys.
func (t *Table[T]) Keys() int {
	n := 0
	for i := range t.entries {
		if t.entries[i].key.Load() != 0 {
			n++
		}
	}
	return n
}

// filler is what Put parks in a pool's per-processor private slot ahead of
// each item. sync.Pool gives every processor one private slot that other
// processors cannot reach, and an item left there is lost to a goroutine
// that resumes on another processor — after a collection, on two
// processors, about half the time — until the victim cache drops it at the
// next collection. With the slot taken by the filler, the item goes to the
// processor's shared chain, which every processor steals from, victim cache
// included. Its type is no table's *T, so Get skips it.
var filler = new(struct{ _ byte })

// Get returns an item Put left in the pool, or nil when there is none.
func (p *Pool[T]) Get() *T {
	if p == nil {
		return nil
	}
	for x := p.p.Get(); x != nil; x = p.p.Get() {
		if s, ok := x.(*T); ok {
			return s
		}
	}
	return nil
}

// Put offers s to the pool, or drops it when p is nil. s must already be in
// the state its next user expects: once Put returns, another goroutine may
// hold it.
func (p *Pool[T]) Put(s *T) {
	if p == nil {
		return
	}
	p.p.Put(filler)
	p.p.Put(s)
}
