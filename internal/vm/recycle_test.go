package vm

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/mem"
)

// recycleShape is the configuration a recycle script runs on: the physical
// memory (the frame bitmap's size), the THP policy and the MMU geometry.
type recycleShape struct {
	phys   mem.Addr
	policy THPPolicy
	cfg    MMUConfig
}

// recycleTLBs are the (entries, ways) pairs of the L1 and L2 TLBs: Table I's
// geometry, direct-mapped and fully associative sets, the 16-way maximum and
// set counts that are not powers of two (the generic set-index path).
var recycleTLBs = [][4]int{{64, 4, 1536, 12}, {4, 1, 8, 2}, {12, 3, 48, 16}, {16, 16, 30, 5}}

// recyclePhys are the physical memory sizes: without a 1GB reservation, at
// its 4GB threshold and with one (8GB, the single-core default).
var recyclePhys = []mem.Addr{2176 << 20, 4 << 30, 8 << 30}

// recycleShapeOf decodes a script's first byte: the TLB geometry, the
// physical memory, the fraction of 2MB regions backed by huge pages, and
// whether the TLB prefetcher runs and the 1GB region at 1GB is mapped with
// a 1GB page (8GB only: smaller memories reserve no 1GB region).
func recycleShapeOf(sel int) recycleShape {
	tlb := recycleTLBs[sel%len(recycleTLBs)]
	sel /= len(recycleTLBs)
	phys := recyclePhys[sel%len(recyclePhys)]
	sel /= len(recyclePhys)
	thp := FractionTHP{Frac: []float64{0, 0.5, 1}[sel%3], Seed: 3}
	sel /= 3
	var policy THPPolicy = thp
	if sel&1 != 0 && phys >= 8<<30 {
		policy = gigaLow{thp}
	}
	return recycleShape{phys: phys, policy: policy, cfg: MMUConfig{
		L1Entries: tlb[0], L1Ways: tlb[1], L2Entries: tlb[2], L2Ways: tlb[3],
		L2Latency: 8, WalkCacheEntries: 4, TLBPrefetch: sel&1 != 0,
	}}
}

// vmStorage is one simulation's VM storage: the frame bitmap, the address
// space's page-table slab and both TLBs' storage.
type vmStorage struct {
	bitmap *frameBitmap
	pt     *ptSlab
	l1, l2 *tlbSlab
}

// freshStorage allocates construction-state storage for shape, with a
// page-table slab of capacity nodes.
func freshStorage(sh recycleShape, nodes int) vmStorage {
	return vmStorage{
		bitmap: newBitmap(newAllocator(sh.phys, 0).smallFrames),
		pt:     newPTSlab(nodes),
		l1:     newTLBSlab(sh.cfg.L1Entries, sh.cfg.L1Ways),
		l2:     newTLBSlab(sh.cfg.L2Entries, sh.cfg.L2Ways),
	}
}

// storageDiff describes the first array where two storages differ, or "".
// Page-table slabs compare over their nodes in use and beyond them up to
// the smaller capacity: the capacity is host-side only.
func storageDiff(got, want vmStorage) string {
	switch {
	case !slices.Equal(got.bitmap.words, want.bitmap.words):
		return "frame bitmap words"
	case !slices.Equal(got.bitmap.touched, want.bitmap.touched):
		return fmt.Sprintf("touched bitmap words %v, want %v", got.bitmap.touched, want.bitmap.touched)
	case len(got.pt.words) != len(want.pt.words) || len(got.pt.phys) != len(want.pt.phys):
		return fmt.Sprintf("page-table slab holds %d nodes, want %d", len(got.pt.phys), len(want.pt.phys))
	}
	nodes := min(cap(got.pt.phys), cap(want.pt.phys))
	switch {
	case !slices.Equal(got.pt.words[:nodes*ptFanout], want.pt.words[:nodes*ptFanout]):
		return "page-table node words"
	case !slices.Equal(got.pt.phys[:nodes], want.pt.phys[:nodes]):
		return fmt.Sprintf("page-table node frames %x, want %x", got.pt.phys[:nodes], want.pt.phys[:nodes])
	}
	for _, tlb := range []struct {
		name      string
		got, want *tlbSlab
	}{{"L1 TLB", got.l1, want.l1}, {"L2 TLB", got.l2, want.l2}} {
		switch {
		case !slices.Equal(tlb.got.words, tlb.want.words):
			return fmt.Sprintf("%s tag and order words %x, want %x", tlb.name, tlb.got.words, tlb.want.words)
		case !slices.Equal(tlb.got.frames, tlb.want.frames):
			return tlb.name + " frames"
		case tlb.got.present != tlb.want.present:
			return fmt.Sprintf("%s present marks %v, want %v", tlb.name, tlb.got.present, tlb.want.present)
		}
	}
	return ""
}

// vmRig is an allocator, an address space and an MMU over one storage, with
// everything a script observes: each step's result and every walk reference
// the MMU sends below.
type vmRig struct {
	alloc *Allocator
	space *AddressSpace
	mmu   *MMU
	steps []string
}

func newVMRig(sh recycleShape, st vmStorage) *vmRig {
	r := &vmRig{alloc: newAllocator(sh.phys, 11)}
	r.alloc.smallUsed = st.bitmap
	r.space = newAddressSpaceOn(r.alloc, sh.policy, newPageTableOn(r.alloc, st.pt))
	port := mem.PortFunc(func(req *mem.Request, at mem.Cycle) mem.Cycle {
		r.steps = append(r.steps, fmt.Sprintf("walk ref %#x at %d", req.PAddr, at))
		return at + 30
	})
	r.mmu = NewMMU(r.space, sh.cfg, 0, port)
	r.mmu.l1 = newTLBOn(sh.cfg.L1Entries, sh.cfg.L1Ways, st.l1)
	r.mmu.l2 = newTLBOn(sh.cfg.L2Entries, sh.cfg.L2Ways, st.l2)
	return r
}

// storage detaches the rig's storage from its owners, as Release does.
func (r *vmRig) storage() vmStorage {
	st := vmStorage{bitmap: r.alloc.smallUsed, pt: r.space.pt.detach(), l1: r.mmu.l1.slab, l2: r.mmu.l2.slab}
	r.alloc.smallUsed, r.mmu.l1.slab, r.mmu.l2.slab = nil, nil, nil
	return st
}

// stats renders every counter the rig keeps.
func (r *vmRig) stats() string {
	m := r.mmu
	return fmt.Sprintf("l1 %d/%d %v l2 %d/%d %v walks %d refs %d by %v tlbpf %d pages %d mapped %d/%d/%d small %d",
		m.l1.Hits, m.l1.Misses, m.l1.HitsBy, m.l2.Hits, m.l2.Misses, m.l2.HitsBy,
		m.Walks, m.WalkRefs, m.WalksBy, m.TLBPrefetches, r.space.pt.Pages(),
		r.alloc.Bytes4K, r.alloc.Bytes2M, r.alloc.Bytes1G, r.alloc.smallCount)
}

// run replays a script, two bytes a step: the operation with the virtual
// address's 1GB region, then the address's 64KB slot within a 16MB span of
// that region. Thirty-two regions with eight 2MB regions each grow the page
// table well past its first slab.
func (r *vmRig) run(script []byte, at mem.Cycle) mem.Cycle {
	for i := 0; i+1 < len(script); i += 2 {
		op, b := script[i], script[i+1]
		v := mem.Addr(op>>3)<<30 + mem.Addr(b)<<16 + mem.Addr(b&7)<<12
		var out string
		switch op & 7 {
		case 0, 1, 2:
			tr, done := r.mmu.Translate(v, at)
			out = fmt.Sprintf("translate %#x: %+v at %d", v, tr, done)
			at = done
		case 3:
			tr, ok := r.space.LookupOnly(v)
			out = fmt.Sprintf("lookup %#x: %+v %v", v, tr, ok)
		case 4:
			tr, ok := r.mmu.ResidentTranslate(v)
			out = fmt.Sprintf("resident %#x: %+v %v", v, tr, ok)
		case 5:
			w, ok := r.space.PageTable().Walk(v)
			out = fmt.Sprintf("walk %#x: %+v %v", v, w, ok)
		case 6:
			out = fmt.Sprintf("frame %#x", r.alloc.Alloc4K())
		default:
			if b&1 == 0 {
				r.mmu.l1.Flush()
			} else {
				r.mmu.l2.Flush()
			}
			out = "flush"
		}
		r.steps = append(r.steps, out)
	}
	return at
}

// runVMRecycleScript checks that recycled VM storage is exact. data[0]
// picks the shape (recycleShapeOf); data[1] splits the rest into a first and
// a second script. The first runs on fresh storage, which is then reset as
// Release resets it and must equal newly allocated storage word for word.
// The second runs on the recycled storage and on fresh storage: every
// step's result (frames, translations, lookups, walks with their references
// and levels, and the walk references sent below), every counter and the
// final storage must agree.
func runVMRecycleScript(t *testing.T, data []byte) {
	t.Helper()
	if len(data) < 2 {
		return
	}
	sh := recycleShapeOf(int(data[0]))
	script := data[2:]
	split := int(data[1]) * len(script) / 256
	first, second := script[:split], script[split:]

	used := newVMRig(sh, freshStorage(sh, initialNodes))
	at := used.run(first, 0)
	st := used.storage()
	st.bitmap.reset()
	st.pt.reset()
	st.l1.reset(sh.cfg.L1Entries, sh.cfg.L1Ways)
	st.l2.reset(sh.cfg.L2Entries, sh.cfg.L2Ways)
	if d := storageDiff(st, freshStorage(sh, cap(st.pt.phys))); d != "" {
		t.Fatalf("%+v: storage reset after %d steps differs from fresh storage: %s", sh, len(first)/2, d)
	}

	recycled := newVMRig(sh, st)
	fresh := newVMRig(sh, freshStorage(sh, initialNodes))
	recycled.run(second, at)
	fresh.run(second, at)
	if !reflect.DeepEqual(recycled.steps, fresh.steps) {
		for i := range min(len(recycled.steps), len(fresh.steps)) {
			if recycled.steps[i] != fresh.steps[i] {
				t.Fatalf("%+v: step %d on recycled storage differs from fresh storage:\n got %s\nwant %s", sh, i, recycled.steps[i], fresh.steps[i])
			}
		}
		t.Fatalf("%+v: %d steps on recycled storage, %d on fresh storage", sh, len(recycled.steps), len(fresh.steps))
	}
	if got, want := recycled.stats(), fresh.stats(); got != want {
		t.Fatalf("%+v: counters on recycled storage differ from fresh storage:\n got %s\nwant %s", sh, got, want)
	}
	if d := storageDiff(recycled.storage(), fresh.storage()); d != "" {
		t.Fatalf("%+v: recycled storage differs from fresh storage after the same script: %s", sh, d)
	}
}

// FuzzVMRecycle is runVMRecycleScript as a fuzz target. The checked-in
// corpus (testdata/fuzz/FuzzVMRecycle) covers every TLB geometry and
// physical memory size, each THP fraction, and the TLB prefetcher with the
// 1GB page.
func FuzzVMRecycle(f *testing.F) {
	f.Add([]byte{0, 128, 0, 1, 8, 1, 3, 1, 5, 1, 16, 200, 4, 1, 2, 9})
	f.Add([]byte{71, 100, 8, 3, 9, 3, 10, 4, 17, 5, 6, 0, 7, 1, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			data = data[:1024]
		}
		runVMRecycleScript(t, data)
	})
}

// TestVMRecycleScripts runs random scripts over every shape.
func TestVMRecycleScripts(t *testing.T) {
	rng := uint64(1)
	next := func() byte {
		rng = rng*6364136223846793005 + 1442695040888963407
		return byte(rng >> 56)
	}
	shapes := len(recycleTLBs) * len(recyclePhys) * 3 * 2
	for sel := 0; sel < shapes; sel++ {
		for n := 0; n < 4; n++ {
			data := make([]byte, 2+2*(40+int(next())))
			for i := range data {
				data[i] = next()
			}
			data[0] = byte(sel)
			runVMRecycleScript(t, data)
		}
	}
}

// TestTranslateAfterReleasePanics: a released MMU, address space or
// allocator no longer owns storage, so every path that would read it panics
// instead of reading storage the next simulation now holds. The counters
// stay.
func TestTranslateAfterReleasePanics(t *testing.T) {
	a := NewAllocator(8<<30, 1)
	space := NewAddressSpace(a, FractionTHP{Frac: 0.5, Seed: 1})
	mmu := NewMMU(space, DefaultMMUConfig(), 0, nil)
	for v := mem.Addr(0); v < 64<<20; v += 1 << 20 {
		mmu.Translate(v, 0)
		mmu.Translate(v, 0) // an L1 TLB hit
	}
	stats := fmt.Sprint(mmu.L1().Hits, mmu.L1().Misses, mmu.L1().HitsBy, mmu.L2().Hits, mmu.L2().Misses,
		mmu.L2().HitsBy, mmu.Walks, mmu.WalksBy, space.PageTable().Pages(), a.Bytes4K, a.Bytes2M, a.Frac2M())
	for _, release := range []func(){mmu.Release, space.Release, a.Release} {
		release()
		release() // a second release is a no-op
	}
	for _, probe := range []struct {
		name string
		fn   func()
	}{
		{"MMU Translate of a TLB-resident page", func() { mmu.Translate(0, 10) }},
		{"MMU Translate of an unmapped page", func() { mmu.Translate(1<<40, 10) }},
		{"MMU ResidentTranslate", func() { mmu.ResidentTranslate(0) }},
		{"L2 TLB Insert", func() { mmu.L2().Insert(0, Translation{}) }},
		{"address-space Translate", func() { space.Translate(0) }},
		{"address-space LookupOnly", func() { space.LookupOnly(0) }},
		{"page-table Walk", func() { space.PageTable().Walk(0) }},
		{"Alloc4K", func() { a.Alloc4K() }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Release did not panic", probe.name)
				}
			}()
			probe.fn()
		}()
	}
	got := fmt.Sprint(mmu.L1().Hits, mmu.L1().Misses, mmu.L1().HitsBy, mmu.L2().Hits, mmu.L2().Misses,
		mmu.L2().HitsBy, mmu.Walks, mmu.WalksBy, space.PageTable().Pages(), a.Bytes4K, a.Bytes2M, a.Frac2M())
	if got != stats {
		t.Errorf("counters after Release = %s, want the run's %s", got, stats)
	}
}

// TestStoragePoolsRecycle: released VM storage goes to the next structure
// of the same shape, reset, and never to one of another shape.
func TestStoragePoolsRecycle(t *testing.T) {
	a := NewAllocator(3<<30, 1)
	for i := 0; i < 100; i++ {
		a.Alloc4K()
	}
	b := a.smallUsed
	a.Release()
	if other := NewAllocator(2<<30, 1); other.smallUsed == b {
		t.Fatal("a 2GB allocator got a released 3GB allocator's frame bitmap")
	}
	tlb := NewTLB(24, 3)
	tlb.Insert(0x5000, Translation{PAddr: 0x9000, Size: mem.Page4K})
	s := tlb.slab
	tlb.Release()
	if other := NewTLB(24, 4); other.slab == s {
		t.Fatal("a 24×4 TLB got a released 24×3 TLB's storage")
	}
	// sync.Pool may drop a Put (always under the race detector, now and
	// then) or hand it to another processor, so reuse is not guaranteed;
	// when it happens the storage must be the construction state.
	if again := NewAllocator(3<<30, 1); again.smallUsed == b {
		if !slices.Equal(b.words, newBitmap(again.smallFrames).words) || len(b.touched) != 0 {
			t.Error("recycled frame bitmap is not all clear")
		}
	}
	if again := NewTLB(24, 3); again.slab == s {
		if want := newTLBSlab(24, 3); !slices.Equal(s.words, want.words) || !slices.Equal(s.frames, want.frames) || s.present != want.present {
			t.Error("recycled TLB storage is not in its construction state")
		}
	}
}
