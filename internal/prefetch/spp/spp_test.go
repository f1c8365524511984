package spp

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/prefetch"
	"repro/internal/recency"
)

func ctxAt(addr mem.Addr) prefetch.Context {
	return prefetch.Context{Addr: mem.BlockAlign(addr), Type: mem.Load, PageSize: mem.Page4K}
}

// drive feeds a sequence of block offsets (within one page at base) and
// collects all proposed candidates after the final access.
func drive(p *Prefetcher, base mem.Addr, offsets []int) []prefetch.Candidate {
	var out []prefetch.Candidate
	for i, off := range offsets {
		addr := base + mem.Addr(off)*mem.BlockSize
		if i == len(offsets)-1 {
			p.Operate(ctxAt(addr), func(c prefetch.Candidate) { out = append(out, c) })
		} else {
			p.Operate(ctxAt(addr), func(prefetch.Candidate) {})
		}
	}
	return out
}

func TestLearnsConstantStride(t *testing.T) {
	p := New(DefaultConfig(), mem.PageBits4K)
	base := mem.Addr(0x40000000)
	// Train stride +1 on one page, then check prediction continues it.
	cands := drive(p, base, []int{0, 1, 2, 3, 4, 5, 6, 7})
	if len(cands) == 0 {
		t.Fatal("no candidates after training a +1 stride")
	}
	next := base + 8*mem.BlockSize
	found := false
	for _, c := range cands {
		if c.Addr == next {
			found = true
			if !c.FillL2 {
				t.Error("high-confidence next block not directed to L2")
			}
		}
	}
	if !found {
		t.Errorf("stride continuation %#x not among candidates %+v", next, cands)
	}
}

func TestLearnsNegativeStride(t *testing.T) {
	p := New(DefaultConfig(), mem.PageBits4K)
	base := mem.Addr(0x40000000)
	cands := drive(p, base, []int{40, 38, 36, 34, 32, 30, 28})
	want := base + 26*mem.BlockSize
	for _, c := range cands {
		if c.Addr == want {
			return
		}
	}
	t.Errorf("negative stride continuation %#x not proposed; got %+v", want, cands)
}

func TestLookaheadIssuesMultipleDepths(t *testing.T) {
	p := New(DefaultConfig(), mem.PageBits4K)
	base := mem.Addr(0x40000000)
	// Long, perfectly regular stride: lookahead should go several blocks deep.
	var offs []int
	for i := 0; i < 30; i++ {
		offs = append(offs, i)
	}
	cands := drive(p, base, offs)
	if len(cands) < 2 {
		t.Errorf("lookahead depth too shallow: %d candidates", len(cands))
	}
	maxDepth := 0
	p.OperateMeta(ctxAt(base+30*mem.BlockSize), func(_ prefetch.Candidate, m Meta) {
		if m.Depth > maxDepth {
			maxDepth = m.Depth
		}
	})
	if maxDepth < 1 {
		t.Errorf("max lookahead depth = %d, want ≥ 1", maxDepth)
	}
}

func TestCandidatesGeneratedBeyond4KBWithinGenLimit(t *testing.T) {
	// SPP generates raw candidates past the 4KB boundary (the engine decides
	// whether to keep them); it must never leave the 2MB region.
	p := New(DefaultConfig(), mem.PageBits4K)
	base := mem.Addr(0x40000000) + mem.PageSize4K - 8*mem.BlockSize // near end of a 4KB page
	var offs []int
	for i := 56; i < 64; i++ {
		offs = append(offs, i)
	}
	var cands []prefetch.Candidate
	for _, off := range offs {
		addr := mem.Addr(0x40000000) + mem.Addr(off)*mem.BlockSize
		p.Operate(ctxAt(addr), func(c prefetch.Candidate) { cands = append(cands, c) })
	}
	_ = base
	crossed := false
	for _, c := range cands {
		if !mem.SamePage(c.Addr, 0x40000000, mem.Page4K) {
			crossed = true
		}
		if !mem.SamePage(c.Addr, 0x40000000, mem.Page2M) {
			t.Errorf("candidate %#x escaped the 2MB generation region", c.Addr)
		}
	}
	if !crossed {
		t.Error("stride at page end produced no 4KB-crossing raw candidate")
	}
}

func TestGHRBootstrapsNewPage(t *testing.T) {
	p := New(DefaultConfig(), mem.PageBits4K)
	page0 := mem.Addr(0x40000000)
	// Stride +1 to the end of page0: lookahead records a region exit in the GHR.
	var offs []int
	for i := 52; i < 64; i++ {
		offs = append(offs, i)
	}
	drive(p, page0, offs)
	// First access to the next page at the landing offset should bootstrap a
	// signature and immediately predict.
	var cands []prefetch.Candidate
	p.Operate(ctxAt(page0+mem.PageSize4K), func(c prefetch.Candidate) { cands = append(cands, c) })
	if len(cands) == 0 {
		t.Error("no bootstrap prediction on first access to the next page")
	}
}

func TestRegionBits2MUsesLargeDeltas(t *testing.T) {
	// With 2MB indexing, a +128-block stride (crossing 4KB pages every other
	// access) is learnable, which 4KB indexing cannot express (|delta| > 63).
	p2m := New(DefaultConfig(), mem.PageBits2M)
	base := mem.Addr(0x40000000)
	var last []prefetch.Candidate
	for i := 0; i < 12; i++ {
		addr := base + mem.Addr(i*128)*mem.BlockSize
		last = nil
		p2m.Operate(ctxAt(addr), func(c prefetch.Candidate) { last = append(last, c) })
	}
	want := base + mem.Addr(12*128)*mem.BlockSize
	found := false
	for _, c := range last {
		if c.Addr == want {
			found = true
		}
	}
	if !found {
		t.Errorf("2MB-indexed SPP did not continue a +128 stride; got %+v", last)
	}
}

func TestNoCandidatesWithoutPattern(t *testing.T) {
	p := New(DefaultConfig(), mem.PageBits4K)
	// Single cold access: no history, no GHR: nothing to propose.
	var cands []prefetch.Candidate
	p.Operate(ctxAt(0x40000000), func(c prefetch.Candidate) { cands = append(cands, c) })
	if len(cands) != 0 {
		t.Errorf("cold access proposed %d candidates", len(cands))
	}
}

func TestNonDemandIgnored(t *testing.T) {
	p := New(DefaultConfig(), mem.PageBits4K)
	ctx := prefetch.Context{Addr: 0x40000000, Type: mem.PageWalk}
	called := false
	p.Operate(ctx, func(prefetch.Candidate) { called = true })
	if called {
		t.Error("page-walk access triggered prefetching")
	}
}

func TestTrainOnlyDoesNotPropose(t *testing.T) {
	p := New(DefaultConfig(), mem.PageBits4K)
	base := mem.Addr(0x40000000)
	for i := 0; i < 8; i++ {
		p.Train(ctxAt(base + mem.Addr(i)*mem.BlockSize))
	}
	// Training must have built the same state Operate would have: the next
	// Operate call predicts immediately.
	var cands []prefetch.Candidate
	p.Operate(ctxAt(base+8*mem.BlockSize), func(c prefetch.Candidate) { cands = append(cands, c) })
	if len(cands) == 0 {
		t.Error("Train-only updates did not build predictive state")
	}
}

func TestSignatureFolding(t *testing.T) {
	p := New(DefaultConfig(), mem.PageBits4K)
	s1 := p.nextSig(0, 1)
	s2 := p.nextSig(0, -1)
	if s1 == s2 {
		t.Error("sign not folded into signature")
	}
	if s1 > p.sigMask || s2 > p.sigMask {
		t.Error("signature exceeded mask")
	}
	// Signature depends on history order.
	a := p.nextSig(p.nextSig(0, 1), 2)
	b := p.nextSig(p.nextSig(0, 2), 1)
	if a == b {
		t.Error("signature insensitive to delta order")
	}
}

func TestAccuracyThrottle(t *testing.T) {
	p := New(DefaultConfig(), mem.PageBits4K)
	if a := p.alpha(); a != 0.9 {
		t.Errorf("warm-up alpha = %v, want 0.9", a)
	}
	for i := 0; i < 100; i++ {
		p.PrefetchUnused(0)
	}
	if a := p.alpha(); a != 0.3 {
		t.Errorf("all-useless alpha = %v, want floor 0.3", a)
	}
	for i := 0; i < 2000; i++ {
		p.PrefetchUseful(0)
	}
	if a := p.alpha(); a < 0.8 {
		t.Errorf("mostly-useful alpha = %v, want near 1", a)
	}
}

func TestPTCounterSaturationAges(t *testing.T) {
	p := New(DefaultConfig(), mem.PageBits4K)
	for i := 0; i < 100; i++ {
		p.ptUpdate(5, 1)
	}
	e := &p.pt[5]
	if e.csig() > p.cfg.CounterMax || e.c(0) > p.cfg.CounterMax {
		t.Errorf("counters exceeded saturation: csig=%d c=%d", e.csig(), e.c(0))
	}
	if e.c(0) == 0 {
		t.Error("dominant delta lost after aging")
	}
}

func TestScaleConfig(t *testing.T) {
	c := DefaultConfig().Scale(2)
	if c.STSets != 128 || c.PTEntries != 1024 {
		t.Errorf("Scale(2) = %+v", c)
	}
}

// TestDeltaSlotsBounds pins the inline Pattern Table: New rejects slot
// counts the fixed array cannot hold, and a table with fewer slots never
// trains past its live prefix.
func TestDeltaSlotsBounds(t *testing.T) {
	for _, n := range []int{0, -1, maxDeltaSlots + 1} {
		cfg := DefaultConfig()
		cfg.DeltaSlots = n
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New accepted DeltaSlots = %d", n)
				}
			}()
			New(cfg, mem.PageBits4K)
		}()
	}
	cfg := DefaultConfig()
	cfg.DeltaSlots = 2
	p := New(cfg, mem.PageBits4K)
	for d := 1; d <= 6; d++ {
		p.ptUpdate(5, d)
	}
	e := &p.pt[5]
	for i := cfg.DeltaSlots; i < maxDeltaSlots; i++ {
		if e.deltas[i] != 0 || e.c(i) != 0 {
			t.Errorf("slot %d beyond DeltaSlots trained: delta %d count %d", i, e.deltas[i], e.c(i))
		}
	}
}

// TestNewRejectsNonPowerOfTwoTables: the Signature and Pattern Tables index
// with masks, which over any other size would reach only part of the table,
// so New refuses such sizes.
func TestNewRejectsNonPowerOfTwoTables(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*Config)
	}{
		{"STSets 48", func(c *Config) { c.STSets = 48 }},
		{"STSets 0", func(c *Config) { c.STSets = 0 }},
		{"PTEntries 12", func(c *Config) { c.PTEntries = 12 }},
		{"PTEntries -512", func(c *Config) { c.PTEntries = -512 }},
	} {
		cfg := DefaultConfig()
		tc.edit(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: New accepted the size", tc.name)
				}
			}()
			New(cfg, mem.PageBits4K)
		}()
	}
}

// TestCounterMaxBounds: the lookahead's decay table covers counters up to
// maxCounter, so New rejects saturation points outside 1..maxCounter, and
// both ends of the range run.
func TestCounterMaxBounds(t *testing.T) {
	for _, n := range []int{0, -1, maxCounter + 1} {
		cfg := DefaultConfig()
		cfg.CounterMax = n
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New accepted CounterMax = %d", n)
				}
			}()
			New(cfg, mem.PageBits4K)
		}()
	}
	for _, n := range []int{1, maxCounter} {
		cfg := DefaultConfig()
		cfg.CounterMax = n
		offsets := make([]int, 40)
		for i := range offsets {
			offsets[i] = i
		}
		if cands := drive(New(cfg, mem.PageBits4K), 0x40000000, offsets); len(cands) == 0 {
			t.Errorf("CounterMax = %d: no candidates after a +1 stride", n)
		}
	}
}

// TestOperateMatchesOperateMeta: Operate and OperateMeta walk the same
// lookahead, so twin prefetchers fed the same accesses and feedback propose
// identical candidate sequences, for both region widths. The streams mix
// strides, noise and page changes so paths run deep, cross regions and
// bootstrap from the global history.
func TestOperateMatchesOperateMeta(t *testing.T) {
	for _, rb := range []uint{mem.PageBits4K, mem.PageBits2M} {
		rng := rand.New(rand.NewSource(int64(rb)))
		plain, meta := New(DefaultConfig(), rb), New(DefaultConfig(), rb)
		var got, want []prefetch.Candidate
		total := 0
		addr := mem.Addr(0x40000000)
		for i := 0; i < 20000; i++ {
			switch r := rng.Intn(100); {
			case r < 70:
				addr += mem.Addr(1+i/2000%3) * mem.BlockSize
			case r < 85:
				addr -= mem.Addr(rng.Intn(5)) * mem.BlockSize
			case r < 95:
				addr += mem.Addr(rng.Intn(200)-100) * mem.BlockSize
			default:
				addr = 0x40000000 + mem.Addr(rng.Intn(1<<14))*mem.PageSize4K
			}
			switch rng.Intn(8) {
			case 0:
				plain.PrefetchUseful(addr)
				meta.PrefetchUseful(addr)
			case 1:
				plain.PrefetchUnused(addr)
				meta.PrefetchUnused(addr)
			}
			got, want = got[:0], want[:0]
			plain.Operate(ctxAt(addr), func(c prefetch.Candidate) { got = append(got, c) })
			meta.OperateMeta(ctxAt(addr), func(c prefetch.Candidate, _ Meta) { want = append(want, c) })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("regionBits=%d access %d (%#x):\nOperate     %v\nOperateMeta %v", rb, i, addr, got, want)
			}
			total += len(got)
		}
		if total == 0 {
			t.Fatalf("regionBits=%d: no candidates proposed", rb)
		}
		t.Logf("regionBits=%d: %d candidates agree", rb, total)
	}
}

// TestSTWaysBounds: each Signature Table set keeps its LRU order in one
// recency word, so New rejects associativities the word cannot order, and
// accepts the largest it can.
func TestSTWaysBounds(t *testing.T) {
	for _, n := range []int{0, -1, recency.MaxWays + 1} {
		cfg := DefaultConfig()
		cfg.STWays = n
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New accepted STWays = %d", n)
				}
			}()
			New(cfg, mem.PageBits4K)
		}()
	}
	cfg := DefaultConfig()
	cfg.STWays = recency.MaxWays
	offsets := make([]int, 16)
	for i := range offsets {
		offsets[i] = i
	}
	if cands := drive(New(cfg, mem.PageBits4K), 0x40000000, offsets); len(cands) == 0 {
		t.Errorf("STWays = %d: no candidates after a +1 stride", recency.MaxWays)
	}
}

// TestSignatureTableRegionLimit: a Signature Table way packs region+1 into
// its top 33 bits. The largest region that fits is tracked like any other,
// and the first past it panics on fill rather than alias onto a smaller
// region or onto a way never filled.
func TestSignatureTableRegionLimit(t *testing.T) {
	for _, rb := range []uint{mem.PageBits4K, mem.PageBits2M} {
		p := New(DefaultConfig(), rb)
		top := mem.Addr(stRegionLimit-1) << rb
		p.Train(ctxAt(top))
		if sig, off, ok := p.train(ctxAt(top + 3*mem.BlockSize)); !ok || off != 3 || sig != p.nextSig(0, 3) {
			t.Errorf("regionBits %d: the largest region was not tracked: sig %#x offset %d ok %v", rb, sig, off, ok)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("regionBits %d: a fill of region %#x did not panic", rb, mem.Addr(stRegionLimit))
				}
			}()
			p.Train(ctxAt(mem.Addr(stRegionLimit) << rb))
		}()
	}
}
