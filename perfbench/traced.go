package main

import (
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/trace"
)

// layer names a span kind. Each span's self time is its duration minus the
// spans nested inside it.
type layer int

const (
	layerCPU      layer = iota // cpu.Core.Run
	layerTrace                 // trace.BatchReader.NextBatch
	layerSim                   // the assembled memory system's own code
	layerVM                    // vm.MMU.Translate
	layerCache                 // cache descent: demand, walk refs, L1 prefetch fills, fetches
	layerCore                  // core.Engine as the L2's observer
	layerPrefetch              // the L1 prefetcher (IPCP) Operate
	layerDRAM                  // dram.DRAM as the LLC's next port
	numLayers
)

// tracer records spans at the seams of one outside-assembled system. It
// reads the monotonic clock once per span edge and keeps a stack of child
// time so self times are exact up to clock overhead.
type tracer struct {
	on    bool
	epoch time.Time
	depth int
	child [64]int64

	self  [numLayers]int64
	calls [numLayers]uint64

	window   int64  // measured-window wall time
	accesses uint64 // demand accesses into the memory system
	decoded  uint64 // trace accesses decoded
	l2Access uint64 // L2 OnAccess events seen by the engine
	walkIncl int64  // inclusive time of walker references
	walkSeen uint64 // walker port calls
	dramSeen uint64 // DRAM port calls
	walkRefs uint64 // MMU.WalkRefs, summed at the end of each simulation
	dramOps  uint64 // DRAM Reads+Writes, summed likewise
	winStart int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) begin() {
	t.on = true
	t.depth = 0
	t.child[0] = 0
	t.winStart = t.now()
}

func (t *tracer) end() {
	t.window += t.now() - t.winStart
	t.on = false
}

func (t *tracer) enter() int64 {
	t.depth++
	t.child[t.depth] = 0
	return t.now()
}

func (t *tracer) exit(l layer, start int64) int64 {
	d := t.now() - start
	t.self[l] += d - t.child[t.depth]
	t.calls[l]++
	t.depth--
	t.child[t.depth] += d
	return d
}

// readerSeam times trace decoding.
type readerSeam struct {
	t *tracer
	r trace.BatchReader
}

func (r *readerSeam) Next(a *trace.Access) bool { return r.r.Next(a) }

func (r *readerSeam) NextBatch(dst []trace.Access) int {
	if !r.t.on {
		return r.r.NextBatch(dst)
	}
	s := r.t.enter()
	n := r.r.NextBatch(dst)
	r.t.exit(layerTrace, s)
	r.t.decoded += uint64(n)
	return n
}

// walkSeam times the page walker's references into the cache descent.
type walkSeam struct {
	t *tracer
	d *cache.Descent
}

func (w *walkSeam) Access(req *mem.Request, at mem.Cycle) mem.Cycle {
	if !w.t.on {
		return w.d.Access(req, at)
	}
	s := w.t.enter()
	done := w.d.Access(req, at)
	w.t.walkIncl += w.t.exit(layerCache, s)
	w.t.walkSeen++
	return done
}

// dramSeam times the LLC's misses and writebacks into DRAM.
type dramSeam struct {
	t *tracer
	d *dram.DRAM
}

func (p *dramSeam) Access(req *mem.Request, at mem.Cycle) mem.Cycle {
	if !p.t.on {
		return p.d.Access(req, at)
	}
	s := p.t.enter()
	done := p.d.Access(req, at)
	p.t.exit(layerDRAM, s)
	p.t.dramSeen++
	return done
}

// engineSeam times the prefetch engine as the L2's observer. Prefetches the
// engine issues into the L2 and LLC are direct calls inside its span, so
// they count as engine time; DRAM traffic they cause is its own span.
type engineSeam struct {
	t *tracer
	e *core.Engine
}

func (o *engineSeam) OnAccess(info cache.AccessInfo) {
	if !o.t.on {
		o.e.OnAccess(info)
		return
	}
	s := o.t.enter()
	o.e.OnAccess(info)
	o.t.exit(layerCore, s)
	o.t.l2Access++
}

func (o *engineSeam) OnPrefetchUseful(block mem.Addr, prefID uint8, c int) {
	if !o.t.on {
		o.e.OnPrefetchUseful(block, prefID, c)
		return
	}
	s := o.t.enter()
	o.e.OnPrefetchUseful(block, prefID, c)
	o.t.exit(layerCore, s)
}

func (o *engineSeam) OnPrefetchUnused(block mem.Addr, prefID uint8, c int) {
	if !o.t.on {
		o.e.OnPrefetchUnused(block, prefID, c)
		return
	}
	s := o.t.enter()
	o.e.OnPrefetchUnused(block, prefID, c)
	o.t.exit(layerCore, s)
}
