package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/vm"
)

// TestPageSizeMetamorphic pins whole-system relations that the paper's
// mechanism implies, where a golden only pins whatever the code does. Each
// workload runs with its THP policy replaced by all-4KB and by all-2MB
// pages, and whole results (Spec blanked) are compared across variants:
//
//   - All 4KB: a PPM bit that only ever reports 4KB leaves nothing for page
//     size awareness to act on, so PSA, PSA-Magic and SD-Page-Size equal
//     Original for every physical-address base.
//   - All 2MB: SD-Page-Size always selects the 2MB-indexed competitor and
//     the oracle agrees with the PPM bit, so SD-Page-Size and PSA-Magic-2MB
//     equal PSA-2MB for every base.
//   - vamp is the designed exception at 4KB: its candidates cross pages in
//     virtual space and need no PPM bit. Original drops them at the 4KB
//     boundary (DiscardedBoundary), PSA at translation (DiscardedUntranslated).
//     Where no dropped candidate translates, PSA equals Original with that
//     count moved; elsewhere PSA issues at least as many virtual prefetches.
//
// PSA-SD is not compared at 4KB: it duels against PSA-2MB, which indexes 2MB
// regions whatever the page size, so it differs by design.
func TestPageSizeMetamorphic(t *testing.T) {
	opt := RunOpt{Warmup: 20_000, Instructions: 80_000, Seed: 1, Samples: 8}
	// vampExact lists the workloads on which none of vamp's boundary-dropped
	// candidates translate under PSA.
	vampExact := map[string]bool{"libquantum": true, "milc": true, "mcf": true, "bwaves": true}
	for _, name := range []string{"libquantum", "milc", "mcf", "pr.road", "bwaves", "soplex"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			all4K, all2M := mustWorkload(t, name), mustWorkload(t, name)
			all4K.THP = vm.FractionTHP{Frac: 0}
			all2M.THP = vm.FractionTHP{Frac: 1}
			run := func(w trace.Workload, base string, v core.Variant) Result {
				t.Helper()
				r, err := Run(DefaultConfig(), PrefSpec{Base: base, Variant: v}, w, opt)
				if err != nil {
					t.Fatal(err)
				}
				r.Spec = ""
				return r
			}
			for _, base := range ExtendedBaseNames() {
				orig := run(all4K, base, core.Original)
				if base == "vamp" {
					psa := run(all4K, base, core.PSA)
					if n := orig.Engine.DiscardedUntranslated; n != 0 {
						t.Errorf("4KB: vamp-original discarded %d untranslated candidates, want 0", n)
					}
					if vampExact[name] {
						want := orig
						want.Engine.DiscardedUntranslated, want.Engine.DiscardedBoundary = orig.Engine.DiscardedBoundary, 0
						if d := resultDiff(psa, want); d != "" {
							t.Errorf("4KB: vamp-PSA differs from vamp-original with boundary discards moved to untranslated: %s", d)
						}
					} else if psa.Engine.VAIssued < orig.Engine.VAIssued {
						t.Errorf("4KB: vamp-PSA issued %d virtual prefetches, fewer than vamp-original's %d",
							psa.Engine.VAIssued, orig.Engine.VAIssued)
					}
				} else {
					for _, v := range []core.Variant{core.PSA, core.PSAMagic, core.SDPageSize} {
						if d := resultDiff(run(all4K, base, v), orig); d != "" {
							t.Errorf("4KB: %s-%s differs from %s-original: %s", base, v, base, d)
						}
					}
				}
				psa2M := run(all2M, base, core.PSA2MB)
				for _, v := range []core.Variant{core.SDPageSize, core.PSAMagic2MB} {
					if d := resultDiff(run(all2M, base, v), psa2M); d != "" {
						t.Errorf("2MB: %s-%s differs from %s-PSA-2MB: %s", base, v, base, d)
					}
				}
			}
		})
	}
}

// resultDiff names the fields in which got and want differ, with both
// values, or returns "" when they are equal.
func resultDiff(got, want Result) string {
	var diffs []string
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < g.NumField(); i++ {
		if !reflect.DeepEqual(g.Field(i).Interface(), w.Field(i).Interface()) {
			diffs = append(diffs, fmt.Sprintf("%s got %+v want %+v", g.Type().Field(i).Name, g.Field(i).Interface(), w.Field(i).Interface()))
		}
	}
	return strings.Join(diffs, "; ")
}
