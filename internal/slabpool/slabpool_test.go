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

// TestKey4: distinct in-range shapes get distinct keys, and a shape with a
// number out of range gets zero, which has no pool.
func TestKey4(t *testing.T) {
	seen := map[uint64][4]int{}
	for _, s := range [][4]int{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, 1},
		{64, 4, 512, 8}, {128, 4, 1024, 8}, {0xFFFF, 0xFFFF, 0xFFFF, 0xFFFF}} {
		k := Key4(s[0], s[1], s[2], s[3])
		if k == 0 {
			t.Fatalf("Key4%v = 0, want a key", s)
		}
		if prev, ok := seen[k]; ok {
			t.Fatalf("Key4%v and Key4%v share key %#x", s, prev, k)
		}
		seen[k] = s
	}
	for _, s := range [][4]int{{0, 0, 0, 0}, {1 << 16, 1, 1, 1}, {1, -1, 1, 1}, {1, 1, 1, 1 << 20}} {
		if k := Key4(s[0], s[1], s[2], s[3]); k != 0 {
			t.Errorf("Key4%v = %#x, want 0", s, k)
		}
	}
	var tab Table[int]
	if p := tab.Pool(0); p != nil || tab.Keys() != 0 {
		t.Fatalf("key 0 got pool %p and claimed %d entries, want none", p, tab.Keys())
	}
}
