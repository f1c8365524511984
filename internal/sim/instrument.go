package sim

import (
	"context"
	"sync"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/telemetry"
)

// Instrumentation bundles the optional observability hooks for one run: a
// metric collector sampled at epoch boundaries and a prefetch-lifecycle
// tracer. Both are strictly observational — an instrumented run retires the
// same instructions in the same cycles as a plain one (pinned by
// TestInstrumentedMatchesPlain) — so telemetry never invalidates cached
// results; it only rides along.
type Instrumentation struct {
	Collector *telemetry.Collector
	Tracer    *telemetry.Tracer
	// EpochInstructions is the sampling period in retired instructions;
	// DefaultEpochInstructions when zero and a Collector is set.
	EpochInstructions uint64
}

// DefaultEpochInstructions is the default telemetry sampling period.
const DefaultEpochInstructions = 100_000

type insKey struct{}

// WithInstrumentation returns a context carrying ins. The context is the
// carrier because runs are dispatched through layers that must not know about
// telemetry (the result cache, the service's simFn): RunContext picks the
// instrumentation up on the far side without any signature change.
func WithInstrumentation(ctx context.Context, ins *Instrumentation) context.Context {
	if ins == nil {
		return ctx
	}
	return context.WithValue(ctx, insKey{}, ins)
}

// InstrumentationFrom returns the instrumentation carried by ctx, or nil.
func InstrumentationFrom(ctx context.Context) *Instrumentation {
	ins, _ := ctx.Value(insKey{}).(*Instrumentation)
	return ins
}

// enabled reports whether any hook is present.
func (ins *Instrumentation) enabled() bool {
	return ins != nil && (ins.Collector != nil || ins.Tracer != nil)
}

// epochLen returns the epoch period in instructions, or 0 when no collector
// is attached (the run loop then never closes epochs).
func (ins *Instrumentation) epochLen() uint64 {
	if ins == nil || ins.Collector == nil {
		return 0
	}
	if ins.EpochInstructions > 0 {
		return ins.EpochInstructions
	}
	return DefaultEpochInstructions
}

// traceObserver adapts a telemetry.Tracer as a cache lifecycle observer.
type traceObserver struct {
	tr *telemetry.Tracer
}

// OnPrefetchLifecycle implements cache.LifecycleObserver.
func (o *traceObserver) OnPrefetchLifecycle(level string, ev cache.LifecycleEvent) {
	e := telemetry.Event{
		Level:  level,
		Block:  uint64(ev.Block),
		At:     int64(ev.At),
		Late:   ev.Late,
		PrefID: ev.PrefID,
		Core:   ev.Core,
	}
	if ev.Req != nil {
		e.PC = uint64(ev.Req.PC)
		if ev.Req.PageSizeKnown {
			e.PageSize = ev.Req.PageSize.String()
		}
		e.CrossedPage = ev.Req.CrossedPage
	}
	switch ev.Kind {
	case cache.LifeFill:
		e.Kind = telemetry.EvFill
		e.Issue = int64(ev.At)
		e.At = int64(ev.Done)
	case cache.LifeUse:
		e.Kind = telemetry.EvUse
	case cache.LifeEvict:
		e.Kind = telemetry.EvEvict
	case cache.LifeDrop:
		e.Kind = telemetry.EvDrop
	}
	o.tr.Record(e)
}

// attach wires the instrumentation into an assembled system. The tracer
// becomes each cache's lifecycle sink — a dedicated hook off the per-access
// observer path, so the prefetch engine's feedback chain is untouched and
// demand accesses pay nothing. The collector binds the shared probe table to
// the system; counter rows baseline at binding, so attaching after warm-up
// keeps warm-up counts out of the first epoch.
func (ins *Instrumentation) attach(sys *system) {
	if !ins.enabled() {
		return
	}
	if ins.Tracer != nil {
		obs := &traceObserver{tr: ins.Tracer}
		for _, n := range sys.nodes {
			n.l1d.SetLifecycleObserver(obs)
			n.l2.SetLifecycleObserver(obs)
		}
		sys.llc.SetLifecycleObserver(obs)
	}
	if ins.Collector != nil {
		table := plainProbes
		if sys.nodes[0].engine != nil {
			table = engineProbes
		}
		ins.Collector.Bind(table(), sys)
	}
}

// engineProbes and plainProbes are the standard probe tables over a
// single-core system (node 0), with and without the prefetch engine's rows
// (spec "none" has no engine). Each is built on first use and then shared
// read-only by every run, so binding a collector costs no closures or names
// per run, and programs that never instrument a run never build them.
var (
	engineProbes = sync.OnceValue(func() []telemetry.Probe { return probeTable(true) })
	plainProbes  = sync.OnceValue(func() []telemetry.Probe { return probeTable(false) })
)

// probeTable lists per-level cache counters and derived ratios, prefetch
// engine counters with page-size attribution, TLB and page-walk traffic by
// page size, DRAM traffic and row-buffer behaviour, and occupancy gauges.
// Derived rows follow the rows they look up.
func probeTable(engine bool) []telemetry.Probe {
	var t []telemetry.Probe
	t = append(t, cacheRows("l1d", func(s *system) *cache.Cache { return s.nodes[0].l1d })...)
	t = append(t, cacheRows("l2", func(s *system) *cache.Cache { return s.nodes[0].l2 })...)
	t = append(t, cacheRows("llc", func(s *system) *cache.Cache { return s.llc })...)

	if engine {
		st := func(s *system) *core.Stats { return &s.nodes[0].engine.Stats }
		t = append(t,
			counter("pf_proposed", func(s *system) uint64 { return st(s).Proposed }),
			counter("pf_issued", func(s *system) uint64 { return st(s).Issued }),
			counter("pf_cross4k", func(s *system) uint64 { return st(s).CrossedPage4K }),
			counter("pf_discarded_boundary", func(s *system) uint64 { return st(s).DiscardedBoundary }),
			counter("pf_queue_dropped", func(s *system) uint64 { return st(s).QueueDropped }),
			counter("ppm_4k", func(s *system) uint64 { return st(s).PPM4K }),
			counter("ppm_2m", func(s *system) uint64 { return st(s).PPM2M }),
			derived("pf_cross4k_rate", func(lk telemetry.Lookup) float64 {
				return ratio(lk("pf_cross4k"), lk("pf_issued"))
			}),
			gauge("psasd_psel", func(s *system) float64 { return float64(s.nodes[0].engine.Csel()) }),
			gauge("psasd_winner", func(s *system) float64 {
				if s.nodes[0].engine.PrefersB() {
					return 1
				}
				return 0
			}),
		)
	}

	// TLB hierarchy and page walks, by page size where the paper cares.
	t = append(t,
		counter("tlb_l1_hits", func(s *system) uint64 { return s.nodes[0].mmu.L1().Hits }),
		counter("tlb_l1_misses", func(s *system) uint64 { return s.nodes[0].mmu.L1().Misses }),
		counter("tlb_l2_hits", func(s *system) uint64 { return s.nodes[0].mmu.L2().Hits }),
		counter("tlb_l2_misses", func(s *system) uint64 { return s.nodes[0].mmu.L2().Misses }),
		counter("tlb_hits_4k", func(s *system) uint64 {
			m := s.nodes[0].mmu
			return m.L1().HitsBy[0] + m.L2().HitsBy[0]
		}),
		counter("tlb_hits_2m", func(s *system) uint64 {
			m := s.nodes[0].mmu
			return m.L1().HitsBy[1] + m.L2().HitsBy[1]
		}),
		counter("walks", func(s *system) uint64 { return s.nodes[0].mmu.Walks }),
		counter("walks_4k", func(s *system) uint64 { return s.nodes[0].mmu.WalksBy[0] }),
		counter("walks_2m", func(s *system) uint64 { return s.nodes[0].mmu.WalksBy[1] }),

		// DRAM.
		counter("dram_reads", func(s *system) uint64 { return s.dramDev.Stats.Reads }),
		counter("dram_writes", func(s *system) uint64 { return s.dramDev.Stats.Writes }),
		counter("dram_row_hits", func(s *system) uint64 { return s.dramDev.Stats.RowHits }),
		counter("dram_row_misses", func(s *system) uint64 { return s.dramDev.Stats.RowMisses }),
		derived("dram_row_hit_rate", func(lk telemetry.Lookup) float64 {
			return ratio(lk("dram_row_hits"), lk("dram_row_hits")+lk("dram_row_misses"))
		}),

		// Core and allocator gauges plus the headline derived series.
		gauge("rob_occupancy", func(s *system) float64 { return float64(s.nodes[0].cpu.ROBOccupancy()) }),
		gauge("dram_busy_banks", func(s *system) float64 {
			return float64(s.dramDev.BusyBanks(s.nodes[0].cpu.Cycle))
		}),
		gauge("frac_2m", func(s *system) float64 { return s.alloc.Frac2M() }),
		derived("ipc", func(lk telemetry.Lookup) float64 {
			return ratio(lk("instructions"), lk("cycles"))
		}),
	)
	return t
}

// cacheRows lists one cache level's counters, gauge and derived ratios under
// the given prefix. The names the derived rows look up are built here, once.
func cacheRows(prefix string, level func(*system) *cache.Cache) []telemetry.Probe {
	hits, misses := prefix+"_demand_hits", prefix+"_demand_misses"
	useful, late, unused := prefix+"_pf_useful", prefix+"_pf_late", prefix+"_pf_unused"
	st := func(s *system) *cache.Stats { return &level(s).Stats }
	return []telemetry.Probe{
		counter(hits, func(s *system) uint64 { return st(s).DemandHits }),
		counter(misses, func(s *system) uint64 { return st(s).DemandMisses }),
		counter(prefix+"_pf_issued", func(s *system) uint64 { return st(s).PrefetchIssued }),
		counter(useful, func(s *system) uint64 { return st(s).PrefetchUseful }),
		counter(late, func(s *system) uint64 { return st(s).PrefetchLate }),
		counter(unused, func(s *system) uint64 { return st(s).PrefetchUnused }),
		counter(prefix+"_pf_dropped", func(s *system) uint64 { return st(s).PrefetchDropped }),
		gauge(prefix+"_mshr_busy", func(s *system) float64 {
			return float64(level(s).MSHRBusy(s.nodes[0].cpu.Cycle))
		}),
		derived(prefix+"_mpki", func(lk telemetry.Lookup) float64 {
			instr := lk("instructions")
			if instr == 0 {
				return 0
			}
			return lk(misses) / instr * 1000
		}),
		derived(prefix+"_hit_ratio", func(lk telemetry.Lookup) float64 {
			h := lk(hits)
			return ratio(h, h+lk(misses))
		}),
		// Accuracy counts late prefetches as useful (cache.Stats.Accuracy);
		// coverage credits fully hidden misses only (cache.Stats.Coverage).
		derived(prefix+"_accuracy", func(lk telemetry.Lookup) float64 {
			good := lk(useful) + lk(late)
			return ratio(good, good+lk(unused))
		}),
		derived(prefix+"_coverage", func(lk telemetry.Lookup) float64 {
			u := lk(useful)
			return ratio(u, u+lk(misses))
		}),
	}
}

// counter, gauge and derived build one probe-table row; counter and gauge
// rows read the *system the table is bound to.
func counter(name string, fn func(*system) uint64) telemetry.Probe {
	return telemetry.Probe{Name: name, Counter: func(src any) uint64 { return fn(src.(*system)) }}
}

func gauge(name string, fn func(*system) float64) telemetry.Probe {
	return telemetry.Probe{Name: name, Gauge: func(src any) float64 { return fn(src.(*system)) }}
}

func derived(name string, fn func(telemetry.Lookup) float64) telemetry.Probe {
	return telemetry.Probe{Name: name, Derived: fn}
}

// ratio returns num/den with 0/0 = 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
