package slabpool

import "testing"

// TestTableBounded: the first MaxKeys keys get a pool each, a key keeps its
// pool, and every later key gets the nil pool, which holds nothing.
func TestTableBounded(t *testing.T) {
	var tab Table[int]
	pools := map[*Pool[int]]bool{}
	for k := uint64(1); k <= MaxKeys; k++ {
		p := tab.Pool(k)
		if p == nil || pools[p] {
			t.Fatalf("key %d: pool %p, want a pool of its own", k, p)
		}
		pools[p] = true
		if again := tab.Pool(k); again != p {
			t.Fatalf("key %d: second lookup gave another pool", k)
		}
	}
	if n := tab.Keys(); n != MaxKeys {
		t.Fatalf("Keys() = %d after %d keys, want %d", n, MaxKeys, MaxKeys)
	}
	full := tab.Pool(MaxKeys + 1)
	if full != nil {
		t.Fatal("a key past MaxKeys got a pool")
	}
	v := 7
	full.Put(&v) // dropped
	if got := full.Get(); got != nil {
		t.Fatalf("the nil pool returned %v", *got)
	}
	if n := tab.Keys(); n != MaxKeys {
		t.Fatalf("Keys() = %d after a key past the cap, want %d", n, MaxKeys)
	}
}

// TestPoolSkipsFiller: Get never returns the filler Put parks ahead of each
// item, and returns the item itself when the pool keeps it. sync.Pool may
// drop a Put (always under the race detector, now and then), so the item
// coming back is not guaranteed.
func TestPoolSkipsFiller(t *testing.T) {
	var tab Table[[4]uint64]
	p := tab.Pool(Key(3, 5))
	if got := p.Get(); got != nil {
		t.Fatalf("an empty pool returned %v", *got)
	}
	item := &[4]uint64{1, 2, 3, 4}
	p.Put(item)
	if got := p.Get(); got != nil && got != item {
		t.Fatalf("Get returned %p, want the item %p or nil", got, item)
	}
	if got := p.Get(); got != nil {
		t.Fatalf("a drained pool returned %v", *got)
	}
}
