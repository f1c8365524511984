package vm

import (
	"repro/internal/mem"
	"repro/internal/recency"
	"repro/internal/slabpool"
)

// The VM layer's fixed storage — the allocator's frame bitmap, page-table
// node slabs and TLB arrays — outlives its simulation the way cache storage
// does (cache.New, (*Cache).Release): each Release resets the storage and
// offers it to a pool keyed by its shape, and the next constructor of that
// shape takes it instead of allocating. Every reset costs what the run used,
// not the storage's capacity, and leaves the storage equal word for word to
// newly allocated storage, so no frame number, node address, walk reference
// or output depends on whether storage was recycled.

// frameBitmap is the allocator's small-region bitmap, one bit per 4KB frame,
// with the indices of the words a run made non-zero: a run touches a few
// thousand frames of a region of hundreds of thousands, and the reset clears
// only those words.
type frameBitmap struct {
	words   []uint64
	touched []uint32
}

// bitmaps pools frame bitmaps by frame count, so each physical memory size
// (a mix scales it with its core count) has its own entry.
var bitmaps slabpool.Table[frameBitmap]

// getBitmap returns an all-clear bitmap over frames frames: a released one
// when the frame count's pool holds one, a newly allocated one otherwise.
func getBitmap(frames uint64) *frameBitmap {
	if b := bitmaps.Pool(frames).Get(); b != nil {
		return b
	}
	return newBitmap(frames)
}

// newBitmap allocates an all-clear bitmap over frames frames.
func newBitmap(frames uint64) *frameBitmap {
	return &frameBitmap{words: make([]uint64, (frames+63)/64)}
}

// putBitmap resets b and offers it to the pool for its frame count.
func putBitmap(frames uint64, b *frameBitmap) {
	if p := bitmaps.Pool(frames); p != nil {
		b.reset()
		p.Put(b)
	}
}

// set marks frame f used and reports whether it already was.
func (b *frameBitmap) set(f uint64) (wasSet bool) {
	w, bit := &b.words[f>>6], uint64(1)<<(f&63)
	if *w&bit != 0 {
		return true
	}
	if *w == 0 {
		b.touched = append(b.touched, uint32(f>>6))
	}
	*w |= bit
	return false
}

// reset clears the words the run touched.
func (b *frameBitmap) reset() {
	for _, w := range b.touched {
		b.words[w] = 0
	}
	b.touched = b.touched[:0]
}

// ptSlab is a page table's storage: node n occupies
// words[n*ptFanout : (n+1)*ptFanout], and phys[n] is its simulated physical
// base. The lengths count the nodes in use; the capacities, equal in nodes,
// are the slab's size class.
type ptSlab struct {
	words []uint64
	phys  []mem.Addr
}

// ptSlabs pools page-table slabs by capacity in nodes: initialNodes and its
// doublings, so a table growing past its slab swaps it for the next class's.
var ptSlabs slabpool.Table[ptSlab]

// getPTSlab returns a slab of capacity nodes holding one zeroed root node:
// a released one when the capacity's pool holds one, a newly allocated one
// otherwise.
func getPTSlab(nodes int) *ptSlab {
	if s := ptSlabs.Pool(uint64(nodes)).Get(); s != nil {
		return s
	}
	return newPTSlab(nodes)
}

// newPTSlab allocates a slab of capacity nodes holding one zeroed root node.
func newPTSlab(nodes int) *ptSlab {
	return &ptSlab{
		words: make([]uint64, ptFanout, nodes*ptFanout),
		phys:  make([]mem.Addr, 1, nodes),
	}
}

// putPTSlab resets s and offers it to the pool for its capacity.
func putPTSlab(s *ptSlab) {
	if p := ptSlabs.Pool(uint64(cap(s.phys))); p != nil {
		s.reset()
		p.Put(s)
	}
}

// reset clears the nodes in use and truncates the slab to its root node.
func (s *ptSlab) reset() {
	clear(s.words)
	clear(s.phys)
	s.words, s.phys = s.words[:ptFanout], s.phys[:1]
}

// tlbSlab is a TLB's storage: the tag words of every way followed by each
// set's recency word in one array (tags[s*ways+w], then order[s]), the
// frames indexed like the tags, and the page sizes ever inserted.
type tlbSlab struct {
	words   []uint64
	frames  []mem.Addr
	present [mem.NumPageSizes]bool
}

// tlbSlabs pools TLB storage by geometry, slabpool.Key(entries, ways).
var tlbSlabs slabpool.Table[tlbSlab]

// getTLBSlab returns storage for a TLB of the given geometry in its
// construction state: a released one when the geometry's pool holds one, a
// newly allocated one otherwise.
func getTLBSlab(entries, ways int) *tlbSlab {
	if s := tlbSlabs.Pool(slabpool.Key(entries, ways)).Get(); s != nil {
		return s
	}
	return newTLBSlab(entries, ways)
}

// newTLBSlab allocates storage for a TLB of the given geometry in its
// construction state: every way invalid, every set's order at
// recency.Initial, no page size present.
func newTLBSlab(entries, ways int) *tlbSlab {
	s := &tlbSlab{
		words:  make([]uint64, entries+entries/ways),
		frames: make([]mem.Addr, entries),
	}
	s.resetOrder(entries, ways)
	return s
}

// putTLBSlab resets s and offers it to the pool for its geometry.
func putTLBSlab(entries, ways int, s *tlbSlab) {
	if p := tlbSlabs.Pool(slabpool.Key(entries, ways)); p != nil {
		s.reset(entries, ways)
		p.Put(s)
	}
}

// reset restores the construction state.
func (s *tlbSlab) reset(entries, ways int) {
	clear(s.words[:entries])
	clear(s.frames)
	s.resetOrder(entries, ways)
	s.present = [mem.NumPageSizes]bool{}
}

// resetOrder sets every set's recency word to recency.Initial.
func (s *tlbSlab) resetOrder(entries, ways int) {
	o := recency.Initial(ways)
	order := s.words[entries:]
	for i := range order {
		order[i] = o
	}
}

// PooledBitmaps returns how many frame counts hold a bitmap pool, at most
// slabpool.MaxKeys.
func PooledBitmaps() int { return bitmaps.Keys() }
