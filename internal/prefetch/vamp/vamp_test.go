package vamp

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/prefetch"
)

// accessed reports whether the block at virtual address v was demanded in a
// tracked region: the per-block lookup the word-parallel scan replaced.
func (p *Prefetcher) accessed(v mem.Addr) bool {
	region := uint64(v) >> p.regionBits
	s := p.slot(region)
	if p.tags[s] != region<<1|1 {
		return false
	}
	block := uint64(v>>mem.BlockBits) & (uint64(p.words)*64 - 1)
	return p.bits[s*p.words+int(block>>6)]&(1<<(block&63)) != 0
}

// refOperate is the reference scan Operate must reproduce: record the access,
// then test each distance k = 1..MaxDistance in turn, +k before −k, with up
// to three per-block lookups each.
func refOperate(p *Prefetcher, ctx prefetch.Context, issue func(prefetch.Candidate)) {
	if !ctx.Type.IsDemand() {
		return
	}
	va := vaOf(ctx)
	p.mark(va)
	issued := 0
	for k := 1; k <= p.cfg.MaxDistance; k++ {
		for _, d := range [2]int64{int64(k), -int64(k)} {
			step := mem.Addr(d) * mem.BlockSize
			cand := va + step
			if !prefetch.InGenLimit(va, cand) {
				continue
			}
			if !p.accessed(va-step) || !p.accessed(va-2*step) {
				continue
			}
			if p.accessed(cand) {
				continue // already demanded
			}
			if p.cfg.Clamp4K && !mem.SamePage(va, cand, mem.Page4K) {
				// Suppressed, but the degree budget is spent (see Config).
				if issued++; issued >= p.cfg.Degree {
					return
				}
				continue
			}
			issue(prefetch.Candidate{Addr: cand, FillL2: true, Virtual: true})
			if issued++; issued >= p.cfg.Degree {
				return
			}
		}
	}
}

func step(addr mem.Addr) prefetch.Context {
	return prefetch.Context{Addr: addr, VAddr: addr, Type: mem.Load, PageSize: mem.Page4K}
}

// TestStrideDetection: a unit-stride stream must propose the next block
// ahead, as a virtual candidate destined for the L2.
func TestStrideDetection(t *testing.T) {
	p := New(DefaultConfig(), mem.PageBits4K)
	base := mem.Addr(0x40000000)
	p.Train(step(base))
	p.Train(step(base + mem.BlockSize))
	var got []prefetch.Candidate
	p.Operate(step(base+2*mem.BlockSize), func(c prefetch.Candidate) {
		got = append(got, c)
	})
	if len(got) == 0 {
		t.Fatal("no proposals after a unit-stride warmup")
	}
	if got[0].Addr != base+3*mem.BlockSize {
		t.Errorf("first proposal %#x, want %#x", got[0].Addr, base+3*mem.BlockSize)
	}
	for _, c := range got {
		if !c.Virtual {
			t.Errorf("candidate %#x not marked virtual", c.Addr)
		}
		if !c.FillL2 {
			t.Errorf("candidate %#x not destined for the L2", c.Addr)
		}
	}
}

// TestNegativeStride: a descending stream must propose the block below.
func TestNegativeStride(t *testing.T) {
	p := New(DefaultConfig(), mem.PageBits4K)
	base := mem.Addr(0x40010000)
	p.Train(step(base + 10*mem.BlockSize))
	p.Train(step(base + 9*mem.BlockSize))
	found := false
	p.Operate(step(base+8*mem.BlockSize), func(c prefetch.Candidate) {
		if c.Addr == base+7*mem.BlockSize {
			found = true
		}
	})
	if !found {
		t.Error("descending unit stride never proposed the block below")
	}
}

// TestCrossPageStride: the access-map lookups cross 4KB region boundaries,
// so a stride at a page edge proposes into the next virtual page — the
// property that distinguishes VA-AMPM from a page-local scheme.
func TestCrossPageStride(t *testing.T) {
	p := New(DefaultConfig(), mem.PageBits4K)
	base := mem.Addr(0x40000000)
	blocks := mem.Addr(mem.PageSize4K / mem.BlockSize)
	// Last three blocks of the page.
	p.Train(step(base + (blocks-3)*mem.BlockSize))
	p.Train(step(base + (blocks-2)*mem.BlockSize))
	trigger := base + (blocks-1)*mem.BlockSize
	crossed := false
	p.Operate(step(trigger), func(c prefetch.Candidate) {
		if !mem.SamePage(trigger, c.Addr, mem.Page4K) {
			crossed = true
		}
	})
	if !crossed {
		t.Error("stride at the page edge never proposed across the 4KB line")
	}
}

// TestClamp4K: with the clamp set, every candidate stays inside the
// trigger's 4KB virtual page even when the pattern points past it.
func TestClamp4K(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Clamp4K = true
	p := New(cfg, mem.PageBits4K)
	base := mem.Addr(0x40000000)
	blocks := mem.Addr(mem.PageSize4K / mem.BlockSize)
	p.Train(step(base + (blocks-3)*mem.BlockSize))
	p.Train(step(base + (blocks-2)*mem.BlockSize))
	trigger := base + (blocks-1)*mem.BlockSize
	p.Operate(step(trigger), func(c prefetch.Candidate) {
		if !mem.SamePage(trigger, c.Addr, mem.Page4K) {
			t.Errorf("clamped prefetcher proposed %#x outside the trigger's 4KB page", c.Addr)
		}
	})
}

// TestNoPatternNoProposals: isolated accesses with no −k/−2k support must
// propose nothing.
func TestNoPatternNoProposals(t *testing.T) {
	p := New(DefaultConfig(), mem.PageBits4K)
	n := 0
	p.Operate(step(0x40000000), func(prefetch.Candidate) { n++ })
	p.Operate(step(0x40100000), func(prefetch.Candidate) { n++ })
	p.Operate(step(0x40a00000), func(prefetch.Candidate) { n++ })
	if n != 0 {
		t.Errorf("proposals without any pattern support: %d", n)
	}
}

// TestDemandedBlocksSkipped: a candidate the program already demanded is not
// proposed again.
func TestDemandedBlocksSkipped(t *testing.T) {
	p := New(DefaultConfig(), mem.PageBits4K)
	base := mem.Addr(0x40000000)
	p.Train(step(base))
	p.Train(step(base + mem.BlockSize))
	p.Train(step(base + 3*mem.BlockSize)) // the +1 candidate's target, pre-demanded
	p.Operate(step(base+2*mem.BlockSize), func(c prefetch.Candidate) {
		if c.Addr == base+3*mem.BlockSize {
			t.Errorf("proposed %#x although it was already demanded", c.Addr)
		}
	})
}

// TestRegionEviction: a colliding region replaces the old map entirely, so
// the evicted region's history no longer supports patterns.
func TestRegionEviction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Regions = 1 // every region collides
	p := New(cfg, mem.PageBits4K)
	base := mem.Addr(0x40000000)
	p.Train(step(base))
	p.Train(step(base + mem.BlockSize))
	p.Train(step(base + 0x100000)) // different region: evicts the map
	if p.accessed(base) || p.accessed(base+mem.BlockSize) {
		t.Fatal("evicted region's blocks still read as accessed")
	}
	n := 0
	p.Operate(step(base+2*mem.BlockSize), func(prefetch.Candidate) { n++ })
	// The trigger's own mark is the only survivor of the re-installed map:
	// no −k/−2k support remains.
	if n != 0 {
		t.Errorf("proposals from an evicted region's history: %d", n)
	}
}

// TestDegreeBound: proposals per access never exceed the configured degree.
func TestDegreeBound(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Degree = 2
	p := New(cfg, mem.PageBits2M)
	base := mem.Addr(0x40000000)
	// Dense warmup: many strides have support.
	for i := 0; i < 64; i++ {
		p.Train(step(base + mem.Addr(i)*mem.BlockSize))
	}
	n := 0
	p.Operate(step(base+64*mem.BlockSize), func(prefetch.Candidate) { n++ })
	if n > cfg.Degree {
		t.Errorf("issued %d candidates, degree is %d", n, cfg.Degree)
	}
}

// TestVAddrPreferred: when the context carries a virtual address, the
// pattern state must be keyed by it, not by the physical address.
func TestVAddrPreferred(t *testing.T) {
	p := New(DefaultConfig(), mem.PageBits4K)
	va := mem.Addr(0x7f0000000000)
	// Physical addresses deliberately scattered: a PA-keyed tracker would
	// see no stride.
	ctx := func(i int) prefetch.Context {
		return prefetch.Context{
			Addr:  mem.Addr(0x1000000*uint64(i*7+1)) | mem.Addr(i)*mem.BlockSize,
			VAddr: va + mem.Addr(i)*mem.BlockSize,
			Type:  mem.Load, PageSize: mem.Page4K,
		}
	}
	p.Train(ctx(0))
	p.Train(ctx(1))
	found := false
	p.Operate(ctx(2), func(c prefetch.Candidate) {
		if c.Addr == va+3*mem.BlockSize {
			found = true
		}
	})
	if !found {
		t.Error("VA-keyed stride not detected when physical addresses scatter")
	}
}

// oracleTrial is one random access history replayed against Operate and
// refOperate on twin prefetchers.
type oracleTrial struct {
	cfg        Config
	regionBits uint
	base       mem.Addr // histories cluster around base
}

// run replays n accesses clustered in a few windows around the trial's base
// (dense enough that many distances find support, with wrap-around at the
// address space's ends) and fails on the first divergent candidate sequence.
// It returns the number of candidates compared.
func (tr oracleTrial) run(t *testing.T, rng *rand.Rand, n int) int {
	t.Helper()
	fast, ref := New(tr.cfg, tr.regionBits), New(tr.cfg, tr.regionBits)
	centres := []mem.Addr{tr.base, tr.base + mem.Addr(rng.Intn(1<<12))*mem.BlockSize}
	var got, want []prefetch.Candidate
	compared := 0
	for i := 0; i < n; i++ {
		va := centres[rng.Intn(len(centres))] + mem.Addr(rng.Intn(400)-200)*mem.BlockSize
		if rng.Intn(3) == 0 {
			va += mem.Addr(rng.Intn(8)) // unaligned trigger
		}
		ctx := prefetch.Context{Addr: va, VAddr: va, Type: mem.Load, PageSize: mem.Page4K}
		if rng.Intn(4) == 0 {
			fast.Train(ctx)
			ref.Train(ctx)
			continue
		}
		got, want = got[:0], want[:0]
		fast.Operate(ctx, func(c prefetch.Candidate) { got = append(got, c) })
		refOperate(ref, ctx, func(c prefetch.Candidate) { want = append(want, c) })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v regionBits=%d access %d va=%#x:\nOperate    %v\nrefOperate %v",
				tr.cfg, tr.regionBits, i, va, got, want)
		}
		compared += len(got)
	}
	return compared
}

// TestOperateMatchesReference: the word-parallel scan proposes exactly the
// per-distance loop's candidate sequence across random histories, region
// table sizes (including a single colliding region),
// region widths, distances, degrees and the 4KB clamp, with histories near
// address 0, near the top of the address space and straddling 2MB edges.
func TestOperateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bases := []mem.Addr{
		0,
		64 * mem.BlockSize,
		^mem.Addr(0) &^ (mem.BlockSize - 1),
		^mem.Addr(0) - 100*mem.BlockSize + 1,
		mem.PageSize2M,
		7*mem.PageSize2M - 3*mem.BlockSize,
		0x7f0000000000 + mem.PageSize2M + 40*mem.BlockSize,
	}
	trials, compared := 0, 0
	for _, regions := range []int{1, 2, 4, 128} {
		for _, rb := range []uint{12, 13, 16, 21} {
			for _, base := range bases {
				for rep := 0; rep < 28; rep++ {
					cfg := Config{
						Regions:     regions,
						MaxDistance: 1 + rng.Intn(64),
						Degree:      1 + rng.Intn(6),
						Clamp4K:     rng.Intn(2) == 0,
					}
					if rep == 0 {
						cfg.MaxDistance = 64
					}
					compared += oracleTrial{cfg: cfg, regionBits: rb, base: base}.run(t, rng, 200)
					trials++
				}
			}
		}
	}
	t.Logf("%d histories agree on %d candidates", trials, compared)
}

// TestNewRejectsBadBounds: distances outside 1..64 do not fit the scan's
// one-word masks, and a zero degree used to propose one candidate per access
// anyway because the budget was checked after the issue.
func TestNewRejectsBadBounds(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*Config)
	}{
		{"MaxDistance 0", func(c *Config) { c.MaxDistance = 0 }},
		{"MaxDistance 65", func(c *Config) { c.MaxDistance = 65 }},
		{"Degree 0", func(c *Config) { c.Degree = 0 }},
		{"Degree -1", func(c *Config) { c.Degree = -1 }},
		{"Regions 0", func(c *Config) { c.Regions = 0 }},
		{"Regions 3", func(c *Config) { c.Regions = 3 }},
		{"Regions 96", func(c *Config) { c.Regions = 96 }},
	} {
		cfg := DefaultConfig()
		tc.edit(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: New accepted %+v", tc.name, cfg)
				}
			}()
			New(cfg, mem.PageBits4K)
		}()
	}
	for _, d := range []int{1, 64} {
		cfg := DefaultConfig()
		cfg.MaxDistance, cfg.Degree = d, 1
		New(cfg, mem.PageBits4K) // the bounds themselves are valid
	}
}
