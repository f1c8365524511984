package ampm

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/prefetch"
)

func ctxAt(addr mem.Addr) prefetch.Context {
	return prefetch.Context{Addr: mem.BlockAlign(addr), Type: mem.Load, PageSize: mem.Page4K}
}

func drive(p *Prefetcher, base mem.Addr, offs []int) []prefetch.Candidate {
	var out []prefetch.Candidate
	for i, off := range offs {
		cb := func(prefetch.Candidate) {}
		if i == len(offs)-1 {
			cb = func(c prefetch.Candidate) { out = append(out, c) }
		}
		p.Operate(ctxAt(base+mem.Addr(off)*mem.BlockSize), cb)
	}
	return out
}

func TestMatchesForwardStride(t *testing.T) {
	p := New(DefaultConfig(), mem.PageBits4K)
	base := mem.Addr(0x40000000)
	// After accessing offsets 0,3,6 the map has −3 and −6 relative to 6:
	// stride 3 matches, prefetch 9.
	cands := drive(p, base, []int{0, 3, 6})
	if len(cands) == 0 {
		t.Fatal("no candidates after a +3 stride")
	}
	if cands[0].Addr != base+9*mem.BlockSize {
		t.Errorf("candidate %#x, want %#x", cands[0].Addr, base+9*mem.BlockSize)
	}
}

func TestMatchesBackwardStride(t *testing.T) {
	p := New(DefaultConfig(), mem.PageBits4K)
	base := mem.Addr(0x40000000)
	cands := drive(p, base, []int{40, 36, 32})
	found := false
	for _, c := range cands {
		if c.Addr == base+28*mem.BlockSize {
			found = true
		}
	}
	if !found {
		t.Errorf("backward stride continuation not proposed: %+v", cands)
	}
}

func TestNoPrefetchOnRandomMap(t *testing.T) {
	p := New(DefaultConfig(), mem.PageBits4K)
	base := mem.Addr(0x40000000)
	cands := drive(p, base, []int{0, 17, 5})
	for _, c := range cands {
		// 17 and 5 do not form a matched ±k,±2k pattern around 5 except by
		// coincidence; at most Degree candidates may appear.
		_ = c
	}
	if len(cands) > DefaultConfig().Degree {
		t.Errorf("more candidates (%d) than degree", len(cands))
	}
}

func TestPrefetchedBlocksNotReproposed(t *testing.T) {
	p := New(DefaultConfig(), mem.PageBits4K)
	base := mem.Addr(0x40000000)
	drive(p, base, []int{0, 1, 2}) // proposes 3 (and maybe 4)
	var again []prefetch.Candidate
	p.Operate(ctxAt(base+2*mem.BlockSize), func(c prefetch.Candidate) { again = append(again, c) })
	for _, c := range again {
		if c.Addr == base+3*mem.BlockSize {
			t.Error("already-prefetched block proposed again")
		}
	}
}

func Test2MBZoneMatchesLargeStride(t *testing.T) {
	// A +100-block stride fits within one 2MB zone but spans 4KB zones.
	p4k := New(DefaultConfig(), mem.PageBits4K)
	cfg := DefaultConfig()
	cfg.MaxStride = 128
	p2m := New(cfg, mem.PageBits2M)
	base := mem.Addr(0x40000000)
	c4 := drive(p4k, base, []int{0, 100, 200})
	c2 := drive(p2m, base, []int{0, 100, 200})
	if len(c4) != 0 {
		t.Errorf("4KB zones matched a 100-block stride: %+v", c4)
	}
	found := false
	for _, c := range c2 {
		if c.Addr == base+300*mem.BlockSize {
			found = true
		}
	}
	if !found {
		t.Errorf("2MB zone missed the 100-block stride: %+v", c2)
	}
}

func TestZoneEvictionLRU(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Zones = 2
	p := New(cfg, mem.PageBits4K)
	a := mem.Addr(0x40000000)
	b := a + mem.PageSize4K
	c := b + mem.PageSize4K
	p.Train(ctxAt(a))
	p.Train(ctxAt(b))
	p.Train(ctxAt(a)) // refresh a
	p.Train(ctxAt(c)) // evicts b
	if p.zoneFor(b)[0] != stateInit {
		t.Error("evicted zone retained state")
	}
}

// TestZoneMapsGrowWithUse pins the shared access-map slab: zones keep their
// state while the slab grows under them, and a 2MB-zone instance that touches
// three zones holds room for four, not for all 64.
func TestZoneMapsGrowWithUse(t *testing.T) {
	p := New(DefaultConfig(), mem.PageBits2M)
	n := p.blocksPerZone()
	base := mem.Addr(0x40000000)
	for z := 0; z < 3; z++ {
		zb := base + mem.Addr(z)*mem.PageSize2M
		p.Train(ctxAt(zb + mem.Addr(z+1)*mem.BlockSize))
	}
	for z := 0; z < 3; z++ {
		m := p.zoneFor(base + mem.Addr(z)*mem.PageSize2M)
		for off, st := range m[:4] {
			want := stateInit
			if off == z+1 {
				want = stateAccess
			}
			if st != want {
				t.Errorf("zone %d offset %d state %d, want %d", z, off, st, want)
			}
		}
	}
	if len(p.maps) != 3*n || cap(p.maps) != 4*n {
		t.Errorf("slab len %d cap %d, want %d and %d", len(p.maps), cap(p.maps), 3*n, 4*n)
	}
}

func TestNonDemandIgnored(t *testing.T) {
	p := New(DefaultConfig(), mem.PageBits4K)
	called := false
	p.Operate(prefetch.Context{Addr: 0x1000, Type: mem.Prefetch}, func(prefetch.Candidate) { called = true })
	if called {
		t.Error("non-demand access proposed candidates")
	}
}
