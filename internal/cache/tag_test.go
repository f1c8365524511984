package cache

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mem"
)

// maxTagBlock is the largest block number a tag word holds: one below
// tagInvalid, the empty-way sentinel.
const maxTagBlock = mem.Addr(tagInvalid) - 1

// TestTagWordRoundTrip converts block numbers at the word's edges and random
// ones to the tag word and back: the word is the block number itself, and
// blockOf rebuilds the block address exactly.
func TestTagWordRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	numbers := []mem.Addr{0, 1, 1 << 31, 1<<32 - 2}
	for i := 0; i < 256; i++ {
		numbers = append(numbers, mem.Addr(rng.Int63n(int64(maxTagBlock)+1)))
	}
	for _, n := range numbers {
		block := n << mem.BlockBits
		tag := tagOf(block)
		if tag != uint32(n) {
			t.Fatalf("tagOf(%#x) = %#x, want the block number %#x", block, tag, n)
		}
		if tag == tagInvalid {
			t.Fatalf("tagOf(%#x) returned the empty-way sentinel", block)
		}
		if got := blockOf(tag); got != block {
			t.Fatalf("blockOf(tagOf(%#x)) = %#x", block, got)
		}
	}
}

// TestTagWordKeepsHighAddressBits fills blocks that share their low 32
// address bits but differ above them — up to the last block the word holds —
// into one set. Each must miss before its own fill, stay distinguishable
// after it, and come back as its full address when evicted (the dirty
// writeback below names it), so a tag that kept only part of the address
// would alias here.
func TestTagWordKeepsHighAddressBits(t *testing.T) {
	next := &fixedPort{latency: 10}
	c := New(Config{Name: "c", Sets: 1, Ways: 4, Latency: 1, MSHREntries: 4}, next)
	blocks := []mem.Addr{
		0x40,
		0x40 + 1<<32,
		0x40 + 1<<37,
		maxTagBlock << mem.BlockBits,
	}
	at := mem.Cycle(0)
	for i, b := range blocks {
		for _, other := range blocks[i:] {
			if c.Contains(other) {
				t.Fatalf("block %#x present before its fill (after filling %#x)", other, blocks[:i])
			}
		}
		c.Access(&mem.Request{PAddr: b, Type: mem.Store}, at)
		at += 100
		for _, filled := range blocks[:i+1] {
			if !c.Contains(filled) {
				t.Fatalf("block %#x missing after filling %#x", filled, blocks[:i+1])
			}
		}
	}
	next.reqs = nil
	// Four fresh blocks evict the four dirty ones, in fill order under LRU.
	for i := 0; i < 4; i++ {
		c.Access(load(mem.Addr(i+2)<<mem.BlockBits), at)
		at += 100
	}
	var wbs []mem.Addr
	for _, r := range next.reqs {
		if r.Type == mem.Writeback {
			wbs = append(wbs, r.PAddr)
		}
	}
	if !reflect.DeepEqual(wbs, blocks) {
		t.Fatalf("writebacks = %#x, want %#x", wbs, blocks)
	}
}

// TestFillPastTagLimitPanics: a fill of block number 2^32−1, the first the
// tag word cannot hold, panics with a message naming the limit instead of
// storing the empty-way sentinel, and keeps the block it would have evicted.
func TestFillPastTagLimitPanics(t *testing.T) {
	c := New(Config{Name: "c", Sets: 1, Ways: 1, Latency: 1, MSHREntries: 4}, nil)
	past := (maxTagBlock + 1) << mem.BlockBits
	if past != AddrLimit {
		t.Fatalf("first block past the tag word %#x, AddrLimit %#x", past, AddrLimit)
	}
	c.Access(load(0x40), 0)
	defer func() {
		if !c.Contains(0x40) {
			t.Error("the refused fill evicted the resident block")
		}
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, "2^38 - 64") {
			t.Fatalf("fill past the tag limit did not panic with the limit: %v", r)
		}
	}()
	c.Access(load(past), 100)
}
