package sim

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// TestConstructionBudget pins what assembling one simulated system costs on
// the host: heap objects and bytes per newSystem, measured over repeated
// builds after one warm-up build (trace generators memoize tables on first
// use). Both are deterministic for a given configuration with one processor
// and collection off (pinProcs); otherwise a collection among the builds
// makes the pools rebuild their per-processor tables, and the count moves
// by about one object per system between runs. Each row allows 5% above
// its recorded value; a structure that goes back to per-entry allocation,
// or a slab pre-sized beyond what a run uses, fails here before it shows up
// in the benchmark. This is the cost of a fresh construction: each cache's,
// TLB's, page table's and core's storage, the allocator's frame bitmap and
// the prefetchers' tables are allocated, with the slab header the pools
// recycle (one object per cache, TLB, page table, core, allocator and
// prefetcher). TestRunBytesBudget pins the recycled case.
func TestConstructionBudget(t *testing.T) {
	rows := []struct {
		workload string
		spec     PrefSpec
		objects  float64 // heap objects per system
		kb       float64 // heap KB per system
	}{
		{"libquantum", PrefSpec{Base: "spp", Variant: core.PSASD}, 96, 766},
		{"mcf", PrefSpec{Base: "ppf", Variant: core.PSA}, 95.5, 814},
		{"soplex", PrefSpec{Base: "vldp", Variant: core.Original}, 91, 755},
	}
	pinProcs(t)
	const builds = 20
	for _, row := range rows {
		w, err := trace.ByName(row.workload)
		if err != nil {
			t.Fatal(err)
		}
		build := func() {
			if _, err := newSystem(DefaultConfig(), row.spec, []trace.Workload{w}, 1); err != nil {
				t.Fatal(err)
			}
		}
		build()
		// Builds never release, and two collections empty the pools of
		// what earlier tests' runs released: every build here allocates
		// its storage fresh. Collection is off, so these are the only ones.
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < builds; i++ {
			build()
		}
		runtime.ReadMemStats(&after)
		objects := float64(after.Mallocs-before.Mallocs) / builds
		kb := float64(after.TotalAlloc-before.TotalAlloc) / builds / 1024
		t.Logf("%s/%s: %.1f objects, %.1f KB per system", row.workload, row.spec.String(), objects, kb)
		if objects > row.objects*1.05 || kb > row.kb*1.05 {
			t.Errorf("%s/%s: construction allocates %.1f objects and %.1f KB per system, budget %.0f and %.0f (+5%%)",
				row.workload, row.spec.String(), objects, kb, row.objects, row.kb)
		}
	}
}

// TestInstrumentationAllocBudget pins what attaching a collector adds to a
// run's heap objects: a fixed cost per run (the collector, its context and
// the counters' baselines; the probe table itself is built once per process)
// plus a cost per epoch (the epoch's metric map). Both are deterministic, so
// the budget is the recorded values with slack. Registering probes through
// per-run closures and names, or rebuilding lookup names while sampling,
// costs well over a hundred objects per run and fails here.
func TestInstrumentationAllocBudget(t *testing.T) {
	// Recorded on libquantum spp/PSA-SD at 20k+80k: about 5 objects per run
	// and 5.4 per epoch (10.3 above plain at 1 epoch, 48.3 at 8).
	const (
		fixedBudget    = 8 // objects per instrumented run
		perEpochBudget = 7 // objects per closed epoch
		runs           = 3
	)
	w, err := trace.ByName("libquantum")
	if err != nil {
		t.Fatal(err)
	}
	spec := PrefSpec{Base: "spp", Variant: core.PSASD}
	opt := RunOpt{Warmup: 20_000, Instructions: 80_000, Seed: 1, Samples: 8}
	// objects returns the mean heap objects per run; epoch 0 runs plain.
	objects := func(epoch uint64) float64 {
		run := func() {
			ctx := context.Background()
			if epoch > 0 {
				ctx = WithInstrumentation(ctx, &Instrumentation{
					Collector:         telemetry.NewCollector(),
					EpochInstructions: epoch,
				})
			}
			if _, err := RunContext(ctx, DefaultConfig(), spec, w, opt); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm-up: memoized generator tables and the probe table
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			// Two collections empty the slab pools, so every run allocates
			// its cache storage afresh: whether a run finds storage to
			// recycle depends on sync.Pool's placement and, under the race
			// detector, on its random drops, and that must not move the
			// difference this test measures.
			runtime.GC()
			runtime.GC()
			run()
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / runs
	}
	plain := objects(0)
	for _, epochs := range []uint64{1, 8} {
		extra := objects(opt.Instructions/epochs) - plain
		budget := float64(fixedBudget + perEpochBudget*epochs)
		t.Logf("%d epochs: %.1f objects above the plain run's %.1f (budget %.0f)", epochs, extra, plain, budget)
		if extra > budget {
			t.Errorf("a collector sampling %d epochs adds %.1f heap objects to a run, budget %.0f (%d per run + %d per epoch)",
				epochs, extra, budget, fixedBudget, perEpochBudget)
		}
	}
}
