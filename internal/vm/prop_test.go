package vm

import (
	"math/rand"
	"testing"

	"repro/internal/mem"
	"repro/internal/recency"
)

// Property tests for the translation structures: the page table, TLB and
// walk cache must be observationally identical to the naive reference models
// in refmodel_test.go, and the whole walk path must stay allocation-free in
// steady state.

// gigaSome claims a single 1GB region for an explicit 1GB page (the allocator
// reserves exactly one 1GB frame), so a single address space mixes all three
// page sizes.
type gigaSome struct{ FractionTHP }

func (gigaSome) Use1GB(r mem.Addr) bool { return r>>30 == 3 }

// TestPropTranslationRoundTrip: under a randomized mix of 4KB, 2MB and 1GB
// mappings, translations preserve page-offset bits, are stable, agree with the
// page table, and report walk depths matching the page size.
func TestPropTranslationRoundTrip(t *testing.T) {
	t.Parallel()
	as := NewAddressSpace(NewAllocator(8<<30, 21), gigaSome{FractionTHP{Frac: 0.5, Seed: 23}})
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		v := mem.Addr(rng.Int63n(1 << 33))
		tr := as.Translate(v)
		if tr.PAddr&(tr.Size.Bytes()-1) != v&(tr.Size.Bytes()-1) {
			t.Fatalf("offset bits lost: v=%#x tr=%+v", v, tr)
		}
		if tr2 := as.Translate(v); tr2 != tr {
			t.Fatalf("translation unstable: v=%#x %+v vs %+v", v, tr, tr2)
		}
		pte, ok := as.PageTable().Lookup(v)
		if !ok || pte.Size != tr.Size || pte.Frame != mem.PageBase(tr.PAddr, tr.Size) {
			t.Fatalf("Lookup disagrees with Translate: v=%#x pte=%+v tr=%+v", v, pte, tr)
		}
		walk, wtr := as.WalkFor(v)
		if wtr != tr {
			t.Fatalf("WalkFor translation mismatch: v=%#x %+v vs %+v", v, wtr, tr)
		}
		wantLevels := map[mem.PageSize]int{mem.Page4K: 4, mem.Page2M: 3, mem.Page1G: 2}[tr.Size]
		if walk.Levels != wantLevels {
			t.Fatalf("walk levels = %d for %v page", walk.Levels, tr.Size)
		}
	}
}

// TestPropPageTableMatchesReference: randomized mapping sequences produce
// identical Walk and Lookup results (references, levels, leaf PTEs) from the
// page table and the map-backed reference over same-seeded allocators.
func TestPropPageTableMatchesReference(t *testing.T) {
	t.Parallel()
	for _, seed := range []uint64{1, 7, 1234} {
		fa, ra := NewAllocator(8<<30, seed), NewAllocator(8<<30, seed)
		pt, ref := NewPageTable(fa), newRefPageTable(ra)
		rng := rand.New(rand.NewSource(int64(seed) * 31))
		sizes := []mem.PageSize{mem.Page4K, mem.Page4K, mem.Page4K, mem.Page2M, mem.Page2M}
		var mapped []mem.Addr
		// One 1GB mapping (the allocator reserves a single 1GB frame), then a
		// randomized mix of 4KB and 2MB mappings around it.
		g := mem.Addr(7) << 30
		gf := fa.Alloc1G()
		ra.Alloc1G()
		pt.Map(g, PTE{Frame: gf, Size: mem.Page1G, Valid: true})
		ref.Map(g, PTE{Frame: gf, Size: mem.Page1G, Valid: true})
		mapped = append(mapped, g, g+512<<20)
		// Like AddressSpace, each 2MB region holds either one 2MB leaf or
		// scattered 4KB pages — never a mix (the table rejects shadowing).
		has4K := map[mem.Addr]bool{}
		for i := 0; i < 600; i++ {
			size := sizes[rng.Intn(len(sizes))]
			v := mem.PageBase(mem.Addr(rng.Int63n(1<<38)), size)
			if v>>30 == 7 {
				continue // covered by the 1GB leaf
			}
			if size == mem.Page2M && has4K[v>>mem.PageBits2M] {
				continue
			}
			// Skip addresses already covered (the address space owns dedup;
			// both tables panic on overlap).
			if _, ok := pt.Lookup(v); ok {
				continue
			}
			if size == mem.Page4K {
				has4K[v>>mem.PageBits2M] = true
			}
			var frame mem.Addr
			if size == mem.Page2M {
				frame = fa.Alloc2M()
				ra.Alloc2M()
			} else {
				frame = fa.Alloc4K()
				ra.Alloc4K()
			}
			pt.Map(v, PTE{Frame: frame, Size: size, Valid: true})
			ref.Map(v, PTE{Frame: frame, Size: size, Valid: true})
			mapped = append(mapped, v)
		}
		for _, v := range mapped {
			checkWalk(t, pt, ref, v)
			checkWalk(t, pt, ref, v+mem.Addr(rng.Int63n(int64(mem.PageSize4K))))
		}
		for i := 0; i < 500; i++ {
			checkWalk(t, pt, ref, mem.Addr(rng.Int63n(1<<39))) // mostly unmapped
		}
		if pt.Pages() != ref.Pages() {
			t.Fatalf("seed %d: page counts diverged: %d vs reference %d", seed, pt.Pages(), ref.Pages())
		}
	}
}

// checkWalk compares Walk and Lookup at v against the reference.
func checkWalk(t *testing.T, pt *PageTable, ref *refPageTable, v mem.Addr) {
	t.Helper()
	w, ok := pt.Walk(v)
	rw, rok := ref.Walk(v)
	if ok != rok || w != rw {
		t.Fatalf("walk diverged at %#x:\ntable     %v %+v\nreference %v %+v", v, ok, w, rok, rw)
	}
	p, pok := pt.Lookup(v)
	if pok != rok || p != rw.PTE {
		t.Fatalf("lookup diverged at %#x: %v %+v vs reference %v %+v", v, pok, p, rok, rw.PTE)
	}
}

// replayTLB drives a TLB and the timestamp reference model through a script
// of byte triples (a, b, c): a%8 picks the operation (0-3 lookup, 4-6 insert,
// 7 flush), b the 4KB page within a pool of 1.5× the TLB's entries and a>>6
// the 2MB region, and c the inserted page size (c%4: 4KB, 4KB, 2MB, 1GB) and
// frame. Every lookup result and the final statistics must match.
func replayTLB(t *testing.T, entries, ways int, script []byte) {
	t.Helper()
	tlb, ref := NewTLB(entries, ways), newRefTLB(entries, ways)
	sizes := [4]mem.PageSize{mem.Page4K, mem.Page4K, mem.Page2M, mem.Page1G}
	pool := entries + entries/2 + 1
	for i := 0; i+3 <= len(script); i += 3 {
		a, b, c := script[i], script[i+1], script[i+2]
		v := mem.Addr(int(b)%pool)<<mem.PageBits4K + mem.Addr(a>>6)<<mem.PageBits2M
		switch op := a % 8; {
		case op < 4:
			tr, ok := tlb.Lookup(v)
			rt, rok := ref.Lookup(v)
			if ok != rok || tr != rt {
				t.Fatalf("%d entries %d ways op %d: lookup(%#x) diverged: %v %+v vs reference %v %+v",
					entries, ways, i/3, v, ok, tr, rok, rt)
			}
		case op < 7:
			size := sizes[c%4]
			tr := Translation{PAddr: mem.PageBase(mem.Addr(c>>2)<<mem.PageBits2M|mem.Addr(b)<<mem.PageBits4K, size), Size: size}
			tlb.Insert(v, tr)
			ref.Insert(v, tr)
		default:
			tlb.Flush()
			ref.Flush()
		}
	}
	if tlb.Hits != ref.hits || tlb.Misses != ref.misses || tlb.HitsBy != ref.hitsBy {
		t.Fatalf("%d entries %d ways: stats diverged: %d/%d/%v vs reference %d/%d/%v",
			entries, ways, tlb.Hits, tlb.Misses, tlb.HitsBy, ref.hits, ref.misses, ref.hitsBy)
	}
}

// tlbScript draws n random replayTLB operations: half lookups, the rest
// inserts but for a rare flush.
func tlbScript(rng *rand.Rand, n int) []byte {
	script := make([]byte, 3*n)
	rng.Read(script)
	for i := 0; i < len(script); i += 3 {
		op := byte(rng.Intn(4))
		if rng.Intn(2) == 0 {
			op = 4 + byte(rng.Intn(3))
			if rng.Intn(100) == 0 {
				op = 7
			}
		}
		script[i] = script[i]&^7 | op
	}
	return script
}

// TestPropTLBMatchesReference: randomized lookup/insert/flush scripts drive
// the TLB and the reference model at every associativity the recency word
// holds, with masked (4 sets) and modulo (3 sets) set selection; every return
// value and every statistic must match.
func TestPropTLBMatchesReference(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{3, 17, 404} {
		rng := rand.New(rand.NewSource(seed))
		for ways := 1; ways <= recency.MaxWays; ways++ {
			for _, sets := range []int{4, 3} {
				replayTLB(t, sets*ways, ways, tlbScript(rng, 4000))
			}
		}
	}
}

// FuzzTLBRecency is replayTLB as a fuzz target: the first byte picks the
// associativity (low nibble + 1) and the set count (1..4, bits 4-5).
func FuzzTLBRecency(f *testing.F) {
	f.Add([]byte{0x0f, 4, 1, 0, 4, 2, 0, 4, 3, 0, 0, 1, 0, 0, 2, 0, 7, 0, 0, 0, 1, 0})           // 16 ways, flush mid-script
	f.Add([]byte{0x13, 4, 0, 0, 5, 1, 0, 6, 2, 0, 4, 3, 0, 4, 4, 0, 0, 0, 0, 0, 4, 0})           // 4 ways, 2 sets, evictions
	f.Add([]byte{0x00, 4, 0, 0, 4, 1, 0, 0, 0, 0, 0, 1, 0, 7, 0, 0, 4, 1, 2, 0, 1, 0})           // one way
	f.Add([]byte{0x2b, 0x44, 9, 2, 0x84, 9, 3, 0x45, 10, 1, 0x40, 9, 0, 0x80, 9, 0, 0xc7, 0, 0}) // 12 ways, 3 sets, large pages
	f.Add([]byte{0x37, 4, 0, 0, 4, 8, 0, 4, 16, 0, 4, 24, 0, 4, 32, 0, 0, 0, 0, 7, 0, 0, 4, 40, 0, 0, 8, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > 1+3*400 {
			data = data[:1+3*400]
		}
		ways := int(data[0]&0xF) + 1
		sets := int(data[0]>>4&3) + 1
		replayTLB(t, sets*ways, ways, data[1:])
	})
}

// TestNewTLBRejectsTooManyWays: the recency word orders at most 16 ways, so a
// 17-way geometry must be refused at construction, not mis-evict later.
func TestNewTLBRejectsTooManyWays(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTLB accepted 17 ways")
		}
	}()
	NewTLB(17, recency.MaxWays+1)
}

// TestPropTLBDenseInvariants checks structural invariants of the dense layout
// directly: tag words are valid or zero, valid ways form a prefix of each set,
// each set's recency word is a permutation of its ways, and an entry survives
// exactly ways-1 subsequent distinct inserts into its set without a touch.
func TestPropTLBDenseInvariants(t *testing.T) {
	t.Parallel()
	tlb := NewTLB(32, 4)
	rng := rand.New(rand.NewSource(8))
	check := func() {
		for s := 0; s < tlb.sets; s++ {
			var seen uint32
			for r := 0; r < tlb.ways; r++ {
				seen |= 1 << recency.Way(tlb.order[s], r)
			}
			if seen != 1<<tlb.ways-1 || tlb.order[s]>>(4*tlb.ways) != 0 {
				t.Fatalf("set %d: recency word %#x is not a permutation of %d ways", s, tlb.order[s], tlb.ways)
			}
			for w := 0; w < tlb.ways; w++ {
				tag := tlb.tags[s*tlb.ways+w]
				if tag != 0 && tag&tlbTagValid == 0 {
					t.Fatalf("set %d way %d: tag %#x missing valid bit", s, w, tag)
				}
				if tag != 0 && w > 0 && tlb.tags[s*tlb.ways+w-1] == 0 {
					t.Fatalf("set %d: valid way %d follows an invalid way", s, w)
				}
			}
		}
	}
	for i := 0; i < 4000; i++ {
		v := mem.Addr(rng.Intn(4096)) << mem.PageBits4K
		switch rng.Intn(50) {
		case 0:
			tlb.Flush()
		default:
			if rng.Intn(2) == 0 {
				tlb.Lookup(v)
			} else {
				tlb.Insert(v, Translation{PAddr: v, Size: mem.Page4K})
			}
		}
		if i%64 == 0 {
			check()
		}
	}
	check()

	// LRU retention: in a fresh set, an untouched entry survives ways-1
	// further inserts and is evicted by the ways-th.
	tlb2 := NewTLB(4, 4) // one set
	base := mem.Addr(0x100) << mem.PageBits4K
	tlb2.Insert(base, Translation{PAddr: base, Size: mem.Page4K})
	for k := 1; k < 4; k++ {
		tlb2.Insert(base+mem.Addr(k)<<mem.PageBits4K, Translation{PAddr: base, Size: mem.Page4K})
		if _, ok := tlb2.Lookup(base); !ok {
			t.Fatalf("entry evicted after only %d inserts into a 4-way set", k)
		}
		tlb2.Lookup(base) // keep it MRU-adjacent but deterministic
	}
}

// TestPropWalkCacheMatchesReference drives the walk cache and the reference
// model with randomized probes, inserting on a miss as the walker does, across
// sizes including the zero-entry cache.
func TestPropWalkCacheMatchesReference(t *testing.T) {
	t.Parallel()
	for _, n := range []int{0, 1, 8} {
		wc, ref := NewWalkCache(n), newRefWalkCache(n)
		rng := rand.New(rand.NewSource(77))
		for i := 0; i < 5000; i++ {
			level := rng.Intn(3)
			key := mem.Addr(rng.Intn(40))
			hit, rhit := wc.contains(level, key), ref.contains(level, key)
			if hit != rhit {
				t.Fatalf("n=%d op %d: contains(%d,%#x) = %v, reference %v", n, i, level, key, hit, rhit)
			}
			if !hit && rng.Intn(4) != 0 {
				wc.insert(level, key)
				ref.insert(level, key)
			}
		}
		if wc.Hits != ref.hits || wc.Lookups != ref.lookups {
			t.Fatalf("n=%d: stats diverged: %d/%d vs reference %d/%d", n, wc.Hits, wc.Lookups, ref.hits, ref.lookups)
		}
		if n > 0 && wc.Hits == 0 {
			t.Fatalf("n=%d: sequence never hit", n)
		}
	}
}

// TestWalkPathZeroAllocs locks down the allocation-free walk path: with a tiny
// TLB over a pre-mapped working set, every translate is a TLB miss and a full
// walk (arena scratch requests, flat-table reads, walk-cache probes), and none
// of it may allocate.
func TestWalkPathZeroAllocs(t *testing.T) {
	as := NewAddressSpace(NewAllocator(1<<30, 31), FractionTHP{Frac: 0.3, Seed: 5})
	cfg := DefaultMMUConfig()
	cfg.L1Entries, cfg.L1Ways = 4, 4 // one set: guarantees misses across a wide sweep
	cfg.L2Entries, cfg.L2Ways = 4, 4
	port := mem.PortFunc(func(req *mem.Request, at mem.Cycle) mem.Cycle { return at + 5 })
	m := NewMMU(as, cfg, 0, port)
	const pages = 512
	for p := 0; p < pages; p++ {
		as.Translate(0x40000000 + mem.Addr(p)<<mem.PageBits4K) // pre-map
	}
	i := 0
	step := func() {
		v := 0x40000000 + mem.Addr(i%pages)<<mem.PageBits4K
		m.Translate(v, mem.Cycle(i))
		i += 37 // stride across sets so the tiny TLBs keep missing
	}
	for k := 0; k < 256; k++ {
		step() // warm the walk arena and any lazily-sized state
	}
	avg := testing.AllocsPerRun(100, func() {
		for k := 0; k < 64; k++ {
			step()
		}
	})
	if avg != 0 {
		t.Errorf("TLB-miss-heavy walk path allocates: %.2f allocs per 64 translates", avg)
	}
	if m.Walks == 0 {
		t.Fatal("test did not exercise the walk path")
	}
}
