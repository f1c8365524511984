package sim

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// TestConstructionBudget pins what assembling one simulated system costs on
// the host: heap objects and bytes per newSystem, measured over repeated
// builds after one warm-up build (trace generators memoize tables on first
// use). Both are deterministic for a given configuration, so each row
// allows 5% above its recorded value; a structure that goes back to
// per-entry allocation, or a slab pre-sized beyond what a run uses, fails
// here before it shows up in the benchmark.
func TestConstructionBudget(t *testing.T) {
	rows := []struct {
		workload string
		spec     PrefSpec
		objects  float64 // heap objects per system
		kb       float64 // heap KB per system
	}{
		{"libquantum", PrefSpec{Base: "spp", Variant: core.PSASD}, 91.5, 785.5},
		{"mcf", PrefSpec{Base: "ppf", Variant: core.PSA}, 89, 918},
		{"soplex", PrefSpec{Base: "vldp", Variant: core.Original}, 87, 755},
	}
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
