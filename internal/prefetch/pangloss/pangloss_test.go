package pangloss

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/prefetch"
)

func step(addr mem.Addr) prefetch.Context {
	return prefetch.Context{Addr: addr, Type: mem.Load, PageSize: mem.Page4K}
}

// TestUnitStrideChain: a unit-stride stream must build a delta-1 Markov
// chain and propose the blocks ahead of the trigger.
func TestUnitStrideChain(t *testing.T) {
	p := New(DefaultConfig(), mem.PageBits4K)
	base := mem.Addr(0x40000000)
	for i := 0; i < 32; i++ {
		p.Train(step(base + mem.Addr(i)*mem.BlockSize))
	}
	var got []mem.Addr
	p.Operate(step(base+32*mem.BlockSize), func(c prefetch.Candidate) {
		got = append(got, c.Addr)
		if !c.FillL2 {
			t.Errorf("unit stride should be high confidence, %#x fills LLC only", c.Addr)
		}
	})
	if len(got) == 0 {
		t.Fatal("no proposals after 32 unit-stride training steps")
	}
	for i, a := range got {
		want := base + mem.Addr(33+i)*mem.BlockSize
		if a != want {
			t.Errorf("proposal %d = %#x, want %#x", i, a, want)
		}
	}
}

// TestChainFollowsLearnedPattern: a repeating +3,+1 delta pattern must make
// the walk alternate the two deltas instead of extrapolating one stride.
func TestChainFollowsLearnedPattern(t *testing.T) {
	p := New(DefaultConfig(), mem.PageBits4K)
	base := mem.Addr(0x40000000)
	off := int64(0)
	for i := 0; i < 64; i++ {
		if i%2 == 0 {
			off += 3
		} else {
			off++
		}
		p.Train(step(base + mem.Addr(off)*mem.BlockSize))
	}
	// The last training delta was +1, so the chain from here starts with +3.
	trigger := base + mem.Addr(off)*mem.BlockSize
	var got []mem.Addr
	p.Operate(step(trigger+3*mem.BlockSize), func(c prefetch.Candidate) {
		got = append(got, c.Addr)
	})
	if len(got) < 2 {
		t.Fatalf("got %d proposals, want at least 2", len(got))
	}
	first := trigger + 3*mem.BlockSize
	if got[0] != first+mem.BlockSize {
		t.Errorf("first proposal %#x, want +1 successor %#x", got[0], first+mem.BlockSize)
	}
}

// TestCrossPageWalk: with 4KB indexing, a stride whose chain walks past the
// page's last block must keep proposing into the next 4KB page (inside the
// 2MB generation region) — the raw material of the PSA variants.
func TestCrossPageWalk(t *testing.T) {
	p := New(DefaultConfig(), mem.PageBits4K)
	base := mem.Addr(0x40000000)
	// Stride of 8 blocks within several consecutive 4KB pages.
	for i := 0; i < 128; i++ {
		p.Train(step(base + mem.Addr(i*8)*mem.BlockSize))
	}
	trigger := base + 128*8*mem.BlockSize
	crossed := false
	p.Operate(step(trigger), func(c prefetch.Candidate) {
		if !mem.SamePage(trigger, c.Addr, mem.Page4K) {
			crossed = true
		}
		if !prefetch.InGenLimit(trigger, c.Addr) {
			t.Errorf("candidate %#x outside generation region of %#x", c.Addr, trigger)
		}
	})
	if !crossed {
		t.Error("8-block stride near the page edge never proposed across the 4KB line")
	}
}

// TestUntrackedJumpResetsChain: a jump beyond MaxDelta must not train a
// transition, and the next access must start a fresh chain.
func TestUntrackedJumpResetsChain(t *testing.T) {
	cfg := DefaultConfig()
	p := New(cfg, mem.PageBits2M)
	base := mem.Addr(0x40000000)
	p.Train(step(base))
	p.Train(step(base + mem.Addr(cfg.MaxDelta+5)*mem.BlockSize)) // untracked
	n := 0
	p.Operate(step(base+mem.Addr(cfg.MaxDelta+5)*mem.BlockSize), func(prefetch.Candidate) { n++ })
	if n != 0 {
		t.Errorf("proposals after an untracked jump: %d", n)
	}
	for i, c := range p.dCount {
		if c != 0 {
			t.Fatalf("delta cache trained by an untracked jump (way %d)", i)
		}
	}
}

// TestLFUReplacement: with a full row, the weakest successor is the one
// evicted.
func TestLFUReplacement(t *testing.T) {
	cfg := DefaultConfig()
	p := New(cfg, mem.PageBits4K)
	// Fill row for prev delta 2 with successors 1..DeltaWays, counts rising.
	for s := 1; s <= cfg.DeltaWays; s++ {
		for n := 0; n < s; n++ {
			p.updateDelta(2, int32(s))
		}
	}
	p.updateDelta(2, int32(cfg.DeltaWays+1)) // evicts successor 1 (count 1)
	base := p.rowBase(2)
	seen1, seenNew := false, false
	for i := base; i < base+cfg.DeltaWays; i++ {
		if p.dCount[i] == 0 {
			continue
		}
		if p.dNext[i] == 1 {
			seen1 = true
		}
		if p.dNext[i] == int32(cfg.DeltaWays+1) {
			seenNew = true
		}
	}
	if seen1 || !seenNew {
		t.Errorf("LFU eviction wrong: successor1 present=%v, new successor present=%v", seen1, seenNew)
	}
}

// TestNewRejectsNonPowerOfTwoPageSets: the page cache's set index is a mask,
// which over any other set count would reach only part of the table, so New
// refuses such counts.
func TestNewRejectsNonPowerOfTwoPageSets(t *testing.T) {
	for _, n := range []int{0, -4, 3, 48} {
		cfg := DefaultConfig()
		cfg.PageSets = n
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New accepted PageSets = %d", n)
				}
			}()
			New(cfg, mem.PageBits4K)
		}()
	}
	cfg := DefaultConfig()
	cfg.PageSets = 1
	New(cfg, mem.PageBits4K) // one set is a power of two
}
