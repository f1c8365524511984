// Package recency packs one set's LRU order into a single word: nibble r
// holds the way at recency rank r, rank 0 the most recent. It is the
// replacement state of the caches and the TLBs.
//
// A touch or fill promotes its way to rank 0 and shifts the ranks above it
// down by one, so the LRU victim is the way at rank ways-1 (the tail). A
// fresh word holds way w at rank ways-1-w: way 0 at the tail. Ways never
// filled are never promoted, so they keep that order behind every filled
// way, and the tail is "first invalid way, else least-recently-used way"
// with no scan — as long as fills always take the tail, which keeps the
// valid ways a prefix.
package recency

import "math/bits"

// MaxWays is the largest associativity one word can order.
const MaxWays = 16

// SWAR constants over the 16 nibble lanes: lane replication and the per-lane
// high bits of the classic zero-lane detector.
const (
	nibLanes = 0x1111111111111111
	nibHigh  = 0x8888888888888888
)

// Initial returns the order of a set with no way filled yet.
func Initial(ways int) uint64 {
	var o uint64
	for w := 0; w < ways; w++ {
		o |= uint64(w) << (uint(ways-1-w) * 4)
	}
	return o
}

// Way returns the way at recency rank r of o.
func Way(o uint64, r int) int { return int(o >> (uint(r) * 4) & 0xF) }

// Promote moves way to rank 0 of o. A SWAR zero-nibble search finds its rank
// — the lowest flagged lane is exact, and the way occurs once among the live
// ranks below any unused high nibbles — then the ranks before it each move
// one nibble toward the tail and the way drops in at rank 0.
func Promote(o uint64, way int) uint64 {
	x := o ^ uint64(way)*nibLanes
	r := uint(bits.TrailingZeros64((x-nibLanes)&^x&nibHigh)) &^ 3 // 4·rank
	below := uint64(1)<<r - 1
	through := uint64(1)<<(r+4) - 1 // ranks 0..rank; all ones at rank 15
	return o&^through | (o&below)<<4 | uint64(way)
}
