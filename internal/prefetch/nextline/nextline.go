// Package nextline implements the trivial next-line prefetcher used as the
// reference point in the paper's Figure 13 comparison.
package nextline

import (
	"repro/internal/mem"
	"repro/internal/prefetch"
)

// Prefetcher issues the next Degree sequential blocks after every demand
// access.
type Prefetcher struct {
	Degree int
}

// New creates a next-line prefetcher with the given degree (1 if degree<=0).
func New(degree int) *Prefetcher {
	if degree <= 0 {
		degree = 1
	}
	return &Prefetcher{Degree: degree}
}

// Factory adapts New to the prefetch.Factory signature; next-line has no
// page-indexed structures, so regionBits is ignored.
func Factory(degree int) prefetch.Factory {
	return func(uint) prefetch.Prefetcher { return New(degree) }
}

// Operate implements prefetch.Prefetcher.
func (p *Prefetcher) Operate(ctx prefetch.Context, issue func(prefetch.Candidate)) {
	if !ctx.Type.IsDemand() {
		return
	}
	for i := 1; i <= p.Degree; i++ {
		c := ctx.Addr + mem.Addr(i)*mem.BlockSize
		if !prefetch.InGenLimit(ctx.Addr, c) {
			break
		}
		issue(prefetch.Candidate{Addr: c, FillL2: true})
	}
}

// Train implements prefetch.Prefetcher. Next-line is stateless.
func (p *Prefetcher) Train(prefetch.Context) {}

// Release implements prefetch.Prefetcher. Next-line has no tables.
func (p *Prefetcher) Release() {}
