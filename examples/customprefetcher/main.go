// Custom prefetcher walkthrough: the paper's PPM is transparent to which
// prefetcher it wraps ("compatible with any cache prefetcher without implying
// design modifications"). This example defines a brand-new stride prefetcher
// against the prefetch.Prefetcher interface, wraps it in the PPM engine, and
// shows it crossing 4KB boundaries on 2MB pages with zero changes to its own
// code — exactly the property Section IV-A claims.
//
//	go run ./examples/customprefetcher
package main

import (
	"fmt"
	"log"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/prefetch"
	"repro/internal/vm"
)

// stridePrefetcher is a minimal PC-agnostic stride prefetcher: it tracks the
// last block and delta per region and prefetches degree blocks ahead. Note it
// contains no page-size logic whatsoever.
type stridePrefetcher struct {
	regionBits uint
	last       map[mem.Addr]int // region → last block offset
	delta      map[mem.Addr]int
	degree     int
}

func newStride(regionBits uint) *stridePrefetcher {
	return &stridePrefetcher{
		regionBits: regionBits,
		last:       map[mem.Addr]int{},
		delta:      map[mem.Addr]int{},
		degree:     4,
	}
}

func (p *stridePrefetcher) Train(ctx prefetch.Context) {
	region := ctx.Addr >> p.regionBits
	off := int((ctx.Addr >> mem.BlockBits) & (1<<(p.regionBits-mem.BlockBits) - 1))
	if last, ok := p.last[region]; ok {
		p.delta[region] = off - last
	}
	p.last[region] = off
}

// Release drops the maps; built-in prefetchers hand their tables to the next
// instance of the same shape instead (internal/slabpool).
func (p *stridePrefetcher) Release() { p.last, p.delta = nil, nil }

func (p *stridePrefetcher) Operate(ctx prefetch.Context, issue func(prefetch.Candidate)) {
	p.Train(ctx)
	region := ctx.Addr >> p.regionBits
	d := p.delta[region]
	if d == 0 {
		return
	}
	for i := 1; i <= p.degree; i++ {
		cand := ctx.Addr + mem.Addr(int64(i*d))*mem.BlockSize
		if !prefetch.InGenLimit(ctx.Addr, cand) {
			return
		}
		issue(prefetch.Candidate{Addr: cand, FillL2: true})
	}
}

func main() {
	// Assemble a minimal hierarchy by hand: DRAM ← LLC ← L2, plus a 2MB-page
	// address space whose allocator doubles as the page-size oracle.
	alloc := vm.NewAllocator(1<<30, 42)
	space := vm.NewAddressSpace(alloc, vm.FractionTHP{Frac: 1}) // everything on 2MB pages

	factory := func(regionBits uint) prefetch.Prefetcher { return newStride(regionBits) }

	run := func(variant core.Variant) (issued, discarded uint64, crossed int) {
		dramDev := dram.New(dram.DefaultConfig())
		llc := cache.New(cache.Config{Name: "LLC", Sets: 2048, Ways: 16, Latency: 20, MSHREntries: 64}, dramDev)
		l2f := cache.New(cache.Config{Name: "L2", Sets: 1024, Ways: 8, Latency: 10, MSHREntries: 32}, llc)
		engine := core.New(factory, variant, l2f, llc, alloc.PageSizeOf, 0)
		l2f.SetObserver(engine)

		// Drive a +3-block stride over the FIRST 4KB page only: any block in
		// the second page can only have arrived via a boundary-crossing
		// prefetch.
		base := space.Translate(0x40000000).PAddr
		for i := 0; i < 21; i++ {
			req := &mem.Request{
				PAddr:         base + mem.Addr(i*3)*mem.BlockSize,
				Type:          mem.Load,
				PageSize:      mem.Page2M,
				PageSizeKnown: true, // the PPM bit from the L1D MSHR
			}
			l2f.Access(req, mem.Cycle(i*40))
		}
		// Count prefetched blocks beyond the first 4KB page.
		for b := mem.Addr(mem.PageSize4K); b < 2*mem.PageSize4K; b += mem.BlockSize {
			if l2f.Contains(base + b) {
				crossed++
			}
		}
		return engine.Stats.Issued, engine.Stats.DiscardedBoundary, crossed
	}

	if _, err := fmt.Println("A custom stride prefetcher wrapped by PPM — no page-size logic inside it:"); err != nil {
		log.Fatal(err)
	}
	for _, v := range []core.Variant{core.Original, core.PSA} {
		issued, discarded, crossed := run(v)
		fmt.Printf("  %-9s issued %3d prefetches, %2d discarded at boundary, %2d blocks prefetched into the next 4KB page\n",
			v, issued, discarded, crossed)
	}
	fmt.Println("\nThe PSA wrapper let the same unmodified prefetcher speculate past the")
	fmt.Println("4KB boundary because the PPM bit says the block resides in a 2MB page.")
}
