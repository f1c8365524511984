package vm

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/recency"
)

// TLB tag word: vpn<<3 | size<<1 | 1, with 0 as the invalid sentinel (the
// valid bit makes the vpn-0 4KB tag distinct from empty). One uint64 compare
// checks validity, page size and vpn at once, and the probe loop scans a
// dense tag array.
const (
	tlbTagValid     = 1 << 0
	tlbTagSizeShift = 1
	tlbTagVPNShift  = 3
)

func tlbTag(vpn mem.Addr, size mem.PageSize) uint64 {
	return uint64(vpn)<<tlbTagVPNShift | uint64(size)<<tlbTagSizeShift | tlbTagValid
}

// TLB is a set-associative translation lookaside buffer supporting 4KB, 2MB
// and 1GB entries in a unified array. Lookups probe the 4KB index first, then
// 2MB, then 1GB (a multi-probe unified design). Entries for 2MB and 1GB pages
// cover the whole page, increasing TLB reach exactly as in real hardware.
type TLB struct {
	sets, ways int
	// setMask is sets-1 when sets is a power of two (the default geometries
	// are), letting set selection use a mask instead of a modulo; zero when
	// the geometry forces the generic path.
	setMask mem.Addr

	// slab owns the storage tags, order and frames view and the present
	// marks; it outlives the TLB through Release (see slab.go).
	slab *tlbSlab
	// tags[s*ways+w] is the tag word of way w in set s (0 = invalid), with
	// frames indexed identically.
	tags   []uint64
	frames []mem.Addr
	// order[s] is set s's recency word (see package recency): hits, inserts
	// and duplicate refreshes promote their way, and the victim is the tail —
	// the first invalid way while any remain, since inserts always take the
	// tail and so keep the valid ways a prefix.
	order []uint64

	// present[s] records whether an entry of page size s was ever inserted:
	// Lookup skips probe passes for sizes the workload never maps (pure 4KB
	// address spaces pay one probe instead of three). Conservatively sticky —
	// Flush invalidates entries but keeps the marks. It points into slab.
	present *[mem.NumPageSizes]bool

	Hits, Misses uint64
	// HitsBy breaks Hits down by the hitting entry's page size, indexed by
	// mem.PageSize (telemetry: TLB reach gained from large pages).
	HitsBy [mem.NumPageSizes]uint64
}

// NewTLB creates a TLB with the given geometry. entries must be divisible by
// ways, and ways at most recency.MaxWays. Its storage comes from the pool
// when a released TLB of the same geometry left some there; Release hands it
// back.
func NewTLB(entries, ways int) *TLB {
	if ways < 1 || ways > recency.MaxWays {
		panic(fmt.Sprintf("vm: %d TLB ways, the recency order holds 1..%d", ways, recency.MaxWays))
	}
	if entries%ways != 0 {
		panic("vm: TLB entries not divisible by ways")
	}
	return newTLBOn(entries, ways, getTLBSlab(entries, ways))
}

// newTLBOn builds a TLB on storage s, which must be in its construction
// state (newTLBSlab's, or a reset one) for the geometry.
func newTLBOn(entries, ways int, s *tlbSlab) *TLB {
	t := &TLB{
		sets:    entries / ways,
		ways:    ways,
		slab:    s,
		tags:    s.words[:entries:entries],
		frames:  s.frames,
		order:   s.words[entries:],
		present: &s.present,
	}
	if t.sets&(t.sets-1) == 0 {
		t.setMask = mem.Addr(t.sets - 1)
	}
	return t
}

// Release returns the TLB's storage to the pool for the next TLB of the
// same geometry. The TLB must not be used afterwards: a Lookup or Insert
// panics instead of reading storage another TLB now owns. Hits, Misses and
// HitsBy stay readable. Releasing twice is a no-op.
func (t *TLB) Release() {
	if s := t.slab; s != nil {
		t.slab, t.tags, t.frames, t.order, t.present = nil, nil, nil, nil, nil
		putTLBSlab(t.sets*t.ways, t.ways, s)
	}
}

// setOf returns vpn's set index.
func (t *TLB) setOf(vpn mem.Addr) int {
	if t.setMask != 0 {
		return int(vpn & t.setMask)
	}
	return int(vpn) % t.sets // vpn < 2^52, so int(vpn) is never negative
}

// Lookup probes the TLB for v. On a hit it returns the translation.
func (t *TLB) Lookup(v mem.Addr) (Translation, bool) {
	for _, size := range [3]mem.PageSize{mem.Page4K, mem.Page2M, mem.Page1G} {
		if !t.present[size] {
			continue
		}
		vpn := mem.PageNumber(v, size)
		s := t.setOf(vpn)
		base := s * t.ways
		tag := tlbTag(vpn, size)
		ways := t.tags[base : base+t.ways]
		for i, tg := range ways {
			if tg == tag {
				t.order[s] = recency.Promote(t.order[s], i)
				t.Hits++
				t.HitsBy[size]++
				off := v & (size.Bytes() - 1)
				return Translation{PAddr: t.frames[base+i] + off, Size: size}, true
			}
		}
	}
	t.Misses++
	return Translation{}, false
}

// Insert installs a translation for v, evicting the set's LRU entry: the
// first invalid way, else the least recently used one.
func (t *TLB) Insert(v mem.Addr, tr Translation) {
	t.present[tr.Size] = true
	vpn := mem.PageNumber(v, tr.Size)
	s := t.setOf(vpn)
	base := s * t.ways
	tag := tlbTag(vpn, tr.Size)
	for i, tg := range t.tags[base : base+t.ways] {
		if tg == tag {
			t.order[s] = recency.Promote(t.order[s], i) // refresh duplicate
			return
		}
		if tg == 0 {
			break // valid ways are a prefix
		}
	}
	victim := recency.Way(t.order[s], t.ways-1)
	t.tags[base+victim] = tag
	t.frames[base+victim] = mem.PageBase(tr.PAddr, tr.Size)
	t.order[s] = recency.Promote(t.order[s], victim)
}

// Flush invalidates all entries.
func (t *TLB) Flush() {
	clear(t.tags)
	t.slab.resetOrder(len(t.tags), t.ways)
}
