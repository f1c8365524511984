package sim

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// TestAllocsPerAccessGate pins host allocations per simulated L1D access over
// whole runs — construction, a 20k-instruction warmup and an 80k measured
// window — on six rows: a streamer with and without SPP, the walk-bound milc
// and mcf rows, and the two crossing families (pangloss under dueling, vamp's
// virtual-candidate path). Allocation counts are deterministic, so unlike
// throughput they can gate. The references are the smoke rows recorded in
// BENCH_2026-10-17_smoke.json; each row fails past 1.25× its reference, and
// its access count must match the recording, so the denominator cannot drift.
func TestAllocsPerAccessGate(t *testing.T) {
	rows := []struct {
		workload string
		spec     PrefSpec
		accesses uint64  // L1D accesses in the measured window
		ref      float64 // recorded allocations per access
	}{
		{"libquantum", PrefSpec{Base: "none"}, 13333, 0.006525},
		{"libquantum", PrefSpec{Base: "spp", Variant: core.PSASD}, 13333, 0.007650},
		{"milc", PrefSpec{Base: "spp", Variant: core.PSA2MB}, 13356, 0.007937},
		{"mcf", PrefSpec{Base: "ppf", Variant: core.PSA}, 9389, 0.011929},
		{"pr.road", PrefSpec{Base: "pangloss", Variant: core.PSASD}, 16000, 0.006625},
		{"milc", PrefSpec{Base: "vamp", Variant: core.PSA}, 13356, 0.007787},
	}
	const (
		runs  = 3
		bound = 1.25
	)
	opt := RunOpt{Warmup: 20_000, Instructions: 80_000, Seed: 1, Samples: 1}
	for _, row := range rows {
		name := row.workload + "/" + row.spec.String()
		w, err := trace.ByName(row.workload)
		if err != nil {
			t.Fatal(err)
		}
		run := func() Result {
			res, err := Run(DefaultConfig(), row.spec, w, opt)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		ref := run() // trace generators memoize tables on first use
		if got := ref.L1D.Hits + ref.L1D.Misses; got != row.accesses {
			t.Fatalf("%s: %d L1D accesses, recorded %d", name, got, row.accesses)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		perAccess := float64(after.Mallocs-before.Mallocs) / runs / float64(row.accesses)
		t.Logf("%s: %.6f allocs/access (reference %.6f)", name, perAccess, row.ref)
		if perAccess > row.ref*bound {
			t.Errorf("%s: %.6f allocs/access, past %.2f× the reference %.6f", name, perAccess, bound, row.ref)
		}
	}
}
