package vamp

import (
	"encoding/binary"
	"testing"

	"repro/internal/mem"
	"repro/internal/prefetch"
)

// FuzzVampRegionMap interprets fuzz bytes as a demand-access script against a
// deliberately tiny region table, checking the access-map invariants after
// every step: no panic, a marked block always reads back as accessed, and
// every proposal is virtual, inside the generation limit, respects the 4KB
// clamp when set, obeys the degree bound, and never targets an
// already-demanded block. A twin prefetcher replays the script through
// refOperate, and every Operate must propose its exact candidate sequence.
// The first byte picks the region width (bit 0), the clamp (bit 1) and
// MaxDistance (bits 2..7, plus one); the second picks Degree 1..6, 0 giving
// the default 2.
func FuzzVampRegionMap(f *testing.F) {
	seed := func(words ...uint32) []byte {
		b := make([]byte, 4*len(words))
		for i, w := range words {
			binary.LittleEndian.PutUint32(b[4*i:], w)
		}
		return b
	}
	f.Add(seed(0, 1, 2, 3, 4, 5))                      // unit stride
	f.Add(seed(100, 98, 96, 94, 92))                   // negative stride
	f.Add(seed(61, 62, 63, 64, 65, 66))                // page crossing
	f.Add(seed(0, 1<<16, 2, 1<<17, 4, 1<<18))          // region collisions
	f.Add(seed(7, 7, 7, 7))                            // same block
	f.Add([]byte{0x02, 0x03})                          // short tail
	f.Add(seed(0xffffffff, 0, 0x80000001, 0x7ffffffe)) // extremes
	// Header 0xfc: 4KB regions, no clamp, MaxDistance 64, degree 2.
	f.Add(seed(0x800000fc, 0x80000000|32770, 0x80000000|32769, 32768)) // descending onto a 2MB edge
	f.Add(seed(0x800000fc, 0x80000000|129, 0x80000000|128, 127))       // trigger in a word's last block

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := DefaultConfig()
		cfg.Regions = 4 // tiny: evictions on nearly every region change
		if len(data) > 0 {
			cfg.Clamp4K = data[0]&2 != 0
			cfg.MaxDistance = 1 + int(data[0]>>2)
		}
		if len(data) > 1 {
			cfg.Degree = 1 + int(data[1]+1)%6
		}
		bits := uint(mem.PageBits4K)
		if len(data) > 0 && data[0]&1 != 0 {
			bits = mem.PageBits2M
		}
		p, ref := New(cfg, bits), New(cfg, bits)
		var want []prefetch.Candidate

		for i := 0; i+4 <= len(data) && i < 400; i += 4 {
			w := binary.LittleEndian.Uint32(data[i:])
			// Blocks within a 16MB window: dense enough to collide regions.
			va := mem.Addr(w&(1<<18-1)) * mem.BlockSize
			ctx := prefetch.Context{Addr: va, VAddr: va, Type: mem.Load, PageSize: mem.Page4K}
			if w&(1<<31) != 0 {
				p.Train(ctx)
				ref.Train(ctx)
			} else {
				want = want[:0]
				refOperate(ref, ctx, func(c prefetch.Candidate) { want = append(want, c) })
				issued := 0
				p.Operate(ctx, func(c prefetch.Candidate) {
					if issued >= len(want) || c != want[issued] {
						t.Fatalf("Operate(%#x): candidate %d is %+v, refOperate proposes %v", va, issued, c, want)
					}
					issued++
					if !c.Virtual {
						t.Fatalf("Operate(%#x): candidate %#x not marked virtual", va, c.Addr)
					}
					if !prefetch.InGenLimit(va, c.Addr) {
						t.Fatalf("Operate(%#x): candidate %#x outside the generation limit", va, c.Addr)
					}
					if cfg.Clamp4K && !mem.SamePage(va, c.Addr, mem.Page4K) {
						t.Fatalf("Operate(%#x): clamped candidate %#x crossed the 4KB page", va, c.Addr)
					}
					if p.accessed(c.Addr) {
						t.Fatalf("Operate(%#x): candidate %#x was already demanded", va, c.Addr)
					}
				})
				if issued > cfg.Degree {
					t.Fatalf("Operate(%#x): issued %d candidates, degree is %d", va, issued, cfg.Degree)
				}
				if issued != len(want) {
					t.Fatalf("Operate(%#x): %d candidates, refOperate proposes %v", va, issued, want)
				}
			}
			if !p.accessed(va) {
				t.Fatalf("block %#x not accessed right after its own demand", va)
			}
		}
	})
}
