package cache

import (
	"fmt"

	"repro/internal/mem"
)

// Descent is the entry to one core's memory-hierarchy slice: the precomputed
// level array (top first) over which every demand access and page-walk
// reference descends. New links each level's devirtualized next-level pointer
// whenever the next Port is itself a *Cache, so the chain Descent validates
// here runs core→L1→L2→LLC→DRAM entirely through direct calls — the only
// interface dispatch left on a miss is the final hop into DRAM. Descent
// implements mem.Port so it can serve as the walker's target, but its Access
// is a concrete method — callers holding a *Descent (the core's memory
// system) reach the top cache without any interface dispatch.
type Descent struct {
	top    *Cache
	levels []*Cache
}

// NewDescent assembles the descent over levels (top first), validating that
// each level's next Port is the following level: New devirtualizes exactly
// this chain, so a mismatched assembly would silently fall back to
// interface dispatch mid-descent.
func NewDescent(levels ...*Cache) *Descent {
	if len(levels) == 0 {
		panic("cache: empty descent")
	}
	for i := 0; i < len(levels)-1; i++ {
		if next, ok := levels[i].next.(*Cache); !ok || next != levels[i+1] {
			panic(fmt.Sprintf("cache: descent level %s does not chain to %s",
				levels[i].cfg.Name, levels[i+1].cfg.Name))
		}
	}
	return &Descent{top: levels[0], levels: levels}
}

// Access implements mem.Port: descend from the top level.
func (d *Descent) Access(req *mem.Request, at mem.Cycle) mem.Cycle {
	return d.top.access(req, at, true)
}

// Levels returns the precomputed level array, top first.
func (d *Descent) Levels() []*Cache { return d.levels }
