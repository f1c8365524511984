package experiments

import (
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/trace"
)

// tinyOptions runs experiments at smoke-test scale over a reduced workload
// set: fast enough for CI, large enough to exercise every code path.
func tinyOptions(t *testing.T) Options {
	t.Helper()
	o := DefaultOptions()
	o.Warmup = 30_000
	o.Instructions = 120_000
	o.Parallelism = 8
	o.Mixes = 2
	names := []string{"libquantum", "milc", "soplex", "pr.road", "qmm_fp_12", "mlpack_cf"}
	ws, err := WorkloadsByName(names)
	if err != nil {
		t.Fatal(err)
	}
	o.Workloads = ws
	return o
}

func TestRunDispatchesAllNames(t *testing.T) {
	if _, err := Run("bogus", DefaultOptions()); err == nil {
		t.Error("unknown experiment did not error")
	}
	// table1 is cheap enough to run through the dispatcher.
	r, err := Run("table1", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Render(), "Table I") {
		t.Error("table1 render missing header")
	}
}

func TestFigure2(t *testing.T) {
	o := tinyOptions(t)
	r, err := Figure2(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, base := range []string{"spp", "vldp", "ppf", "bop"} {
		s, ok := r.PerPrefetcher[base]
		if !ok {
			t.Fatalf("missing prefetcher %s", base)
		}
		if s.N != len(o.Workloads) {
			t.Errorf("%s: N = %d", base, s.N)
		}
		if s.Max < 0 || s.Max > 1 {
			t.Errorf("%s: probability out of range: %+v", base, s)
		}
	}
	// 2MB-heavy workloads must show a nonzero missed opportunity for at
	// least one prefetcher.
	if r.PerWorkload["spp"]["libquantum"] <= 0 {
		t.Error("libquantum shows no discarded safe crossings under SPP")
	}
	// 4KB-heavy soplex must show almost none.
	if r.PerWorkload["spp"]["soplex"] > 0.05 {
		t.Errorf("soplex discard probability = %v", r.PerWorkload["spp"]["soplex"])
	}
	if !strings.Contains(r.Render(), "Figure 2") {
		t.Error("render missing title")
	}
}

func TestFigure3(t *testing.T) {
	o := tinyOptions(t)
	r, err := Figure3(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != len(nineBenchmarks) {
		t.Fatalf("series = %d", len(r.Series))
	}
	// libquantum stays ~100% 2MB; soplex stays low — the Figure 3 shapes.
	lq := r.Series["libquantum"]
	if lq[len(lq)-1] < 0.9 {
		t.Errorf("libquantum final 2MB fraction = %v", lq[len(lq)-1])
	}
	sp := r.Series["soplex"]
	if sp[len(sp)-1] > 0.5 {
		t.Errorf("soplex final 2MB fraction = %v", sp[len(sp)-1])
	}
	if !strings.Contains(r.Render(), "Figure 3") {
		t.Error("render missing title")
	}
}

func TestFigure4And5Shapes(t *testing.T) {
	o := tinyOptions(t)
	r4, err := Figure4(o)
	if err != nil {
		t.Fatal(err)
	}
	// Magic page-size awareness must not lose to the original in geomean.
	if r4.Geomean["SPP-PSA-Magic"] < r4.Geomean["SPP"] {
		t.Errorf("SPP-PSA-Magic geomean (%v) below SPP (%v)",
			r4.Geomean["SPP-PSA-Magic"], r4.Geomean["SPP"])
	}
	r5, err := Figure5(o)
	if err != nil {
		t.Fatal(err)
	}
	// milc: the 2MB-indexed variant must beat both (its long strides are
	// inexpressible with 4KB deltas) — the paper's Figure 5 highlight.
	milc2 := r5.Speedup["SPP-PSA-Magic-2MB"]["milc"]
	milc1 := r5.Speedup["SPP-PSA-Magic"]["milc"]
	if milc2 <= milc1 {
		t.Errorf("milc: Magic-2MB (%v%%) not above Magic (%v%%)", milc2, milc1)
	}
	if !strings.Contains(r5.Render(), "Figure 5") {
		t.Error("render missing title")
	}
}

func TestFigure8Shapes(t *testing.T) {
	o := tinyOptions(t)
	r, err := Figure8(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.Geomean["PSA"] < 0 {
		t.Errorf("SPP-PSA geomean = %v%%, expected non-negative", r.Geomean["PSA"])
	}
	if r.Geomean["PSA-SD"] < r.Geomean["PSA-2MB"]-1 && r.Geomean["PSA-SD"] < r.Geomean["PSA"]-1 {
		t.Errorf("PSA-SD (%v%%) well below both PSA (%v%%) and PSA-2MB (%v%%)",
			r.Geomean["PSA-SD"], r.Geomean["PSA"], r.Geomean["PSA-2MB"])
	}
	if len(r.Order) != len(o.Workloads) {
		t.Errorf("order = %d", len(r.Order))
	}
	out := r.Render()
	if !strings.Contains(out, "GeoMean") || !strings.Contains(out, "milc") {
		t.Error("render incomplete")
	}
}

func TestFigure13Shapes(t *testing.T) {
	o := tinyOptions(t)
	r, err := Figure13(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range r.Order {
		if r.Speedup[n] <= 0 {
			t.Errorf("%s speedup = %v", n, r.Speedup[n])
		}
	}
	// BOP-PSA and BOP-PSA-SD coincide.
	if r.Speedup["BOP-PSA"] != r.Speedup["BOP-PSA-SD"] {
		t.Error("BOP PSA and PSA-SD diverged")
	}
	if !strings.Contains(r.Render(), "Figure 13") {
		t.Error("render missing title")
	}
}

func TestFigure14Runs(t *testing.T) {
	o := tinyOptions(t)
	o.Warmup = 20_000
	o.Instructions = 60_000
	r, err := Figure14(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cores != 4 {
		t.Errorf("cores = %d", r.Cores)
	}
	if len(r.Schemes) != 8 { // 4 prefetchers × {PSA, PSA-SD}
		t.Errorf("schemes = %v", r.Schemes)
	}
	for _, s := range r.Schemes {
		if len(r.Speedups[s]) != o.Mixes {
			t.Errorf("%s: %d mixes", s, len(r.Speedups[s]))
		}
	}
	if !strings.Contains(r.Render(), "Figure 14") {
		t.Error("render missing title")
	}
}

func TestFigure15Runs(t *testing.T) {
	o := tinyOptions(t)
	o.Warmup = 20_000
	o.Instructions = 60_000
	r, err := Figure15(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cores != 8 {
		t.Errorf("cores = %d", r.Cores)
	}
	if len(r.Schemes) != 8 { // 4 prefetchers × {PSA, PSA-SD}
		t.Errorf("schemes = %v", r.Schemes)
	}
	for _, s := range r.Schemes {
		if len(r.Speedups[s]) != o.Mixes {
			t.Errorf("%s: %d mixes", s, len(r.Speedups[s]))
		}
	}
	if !strings.Contains(r.Render(), "Figure 15") {
		t.Error("render missing title")
	}
}

func TestMixesDeterministic(t *testing.T) {
	o := tinyOptions(t)
	a := mixesFor(o, 4, 5)
	b := mixesFor(o, 4, 5)
	for i := range a {
		for c := range a[i] {
			if a[i][c].Name != b[i][c].Name {
				t.Fatal("mixes not deterministic")
			}
		}
	}
	// Different core counts draw different mixes.
	c8 := mixesFor(o, 8, 5)
	if len(c8[0]) != 8 {
		t.Errorf("8-core mix size = %d", len(c8[0]))
	}
}

func TestSuiteGroupingForFig9(t *testing.T) {
	counts := map[string]int{}
	for _, w := range trace.Intensive() {
		counts[suiteOf(w)]++
	}
	if counts["SPEC"] != 31 || counts["GAP+ML+CLOUD"] != 10 || counts["QMM"] != 39 {
		t.Errorf("suite grouping = %v", counts)
	}
}

func TestAblationRuns(t *testing.T) {
	o := tinyOptions(t)
	o.Workloads = o.Workloads[:3]
	r, err := Ablation(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Order) != 4 {
		t.Fatalf("configs = %v", r.Order)
	}
	for _, n := range r.Order {
		if _, ok := r.Geomean[n]; !ok {
			t.Errorf("missing config %s", n)
		}
	}
	if !strings.Contains(r.Render(), "Ablation") {
		t.Error("render missing title")
	}
}

func TestExtensionsRuns(t *testing.T) {
	o := tinyOptions(t)
	o.Workloads = o.Workloads[:3]
	r, err := Extensions(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, base := range []string{"sms", "ampm", "temporal"} {
		if _, ok := r.SpeedupOverNone[base]; !ok {
			t.Errorf("missing base %s", base)
		}
	}
	if r.TemporalMetadataBytes < 100<<10 {
		t.Errorf("temporal metadata = %d", r.TemporalMetadataBytes)
	}
	if r.TLBPrefetchWalkReduction <= 0 {
		t.Errorf("TLB prefetch walk reduction = %v", r.TLBPrefetchWalkReduction)
	}
	if !strings.Contains(r.Render(), "Extensions") {
		t.Error("render missing title")
	}
}

func TestShapeChecksPassAtTinyScale(t *testing.T) {
	o := tinyOptions(t)
	r2, err := Figure2(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range r2.Check() {
		t.Errorf("fig2: %v", e)
	}
	r3, err := Figure3(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range r3.Check() {
		t.Errorf("fig3: %v", e)
	}
	r5, err := Figure5(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range r5.Check() {
		t.Errorf("fig5: %v", e)
	}
	r8, err := Figure8(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range r8.Check() {
		t.Errorf("fig8: %v", e)
	}
}

func TestShapeChecksCatchViolations(t *testing.T) {
	// Hand-built violating results must be flagged.
	bad8 := &Fig8Result{Base: "spp", Geomean: map[string]float64{
		"PSA": -5, "PSA-2MB": 3, "PSA-SD": -4,
	}}
	if len(bad8.Check()) == 0 {
		t.Error("negative PSA geomean not flagged")
	}
	bad13 := &Fig13Result{Speedup: map[string]float64{
		"IPCP": 1.2, "IPCP++": 1.0, "SPP-PSA": 0.9, "SPP-PSA-SD": 0.9,
		"PPF-PSA": 0.9, "PPF-PSA-SD": 0.9, "BOP-PSA": 1.0, "BOP-PSA-SD": 1.0,
	}}
	if len(bad13.Check()) < 2 {
		t.Error("fig13 violations not flagged")
	}
	badMulti := &MultiResult{Cores: 4, Summary: map[string]stats.Summary{
		"SPP-PSA": {Median: -10}, "SPP-PSA-SD": {Median: 2},
	}}
	if len(badMulti.Check()) == 0 {
		t.Error("negative multicore median not flagged")
	}
	if CheckAll(&TableIResult{}) != nil {
		t.Error("non-Checker result produced checks")
	}
}

func TestFigure9Shapes(t *testing.T) {
	o := tinyOptions(t)
	o.Workloads = o.Workloads[:4]
	r, err := Figure9(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range r.Check() {
		t.Error(e)
	}
	out := r.Render()
	for _, want := range []string{"SPP", "VLDP", "PPF", "BOP", "ALL"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %s", want)
		}
	}
}

func TestFigure10Runs(t *testing.T) {
	o := tinyOptions(t)
	r, err := Figure10(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows["PSA"]) != len(representative10) {
		t.Errorf("rows = %d", len(r.Rows["PSA"]))
	}
	if !strings.Contains(r.Render(), "Figure 10") {
		t.Error("render missing title")
	}
}

func TestFigure11Shapes(t *testing.T) {
	o := tinyOptions(t)
	o.Workloads = o.Workloads[:4]
	r, err := Figure11(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, base := range []string{"spp", "vldp", "ppf"} {
		if len(r.Geomean[base]) != 4 {
			t.Errorf("%s schemes = %d", base, len(r.Geomean[base]))
		}
	}
	if !strings.Contains(r.Render(), "SD-Proposed") {
		t.Error("render missing scheme")
	}
}

func TestFigure12Runs(t *testing.T) {
	o := tinyOptions(t)
	o.Workloads = o.Workloads[:2]
	o.Instructions = 60_000
	o.Warmup = 20_000
	r, err := Figure12(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, sweep := range []string{"L2 MSHR", "LLC size", "DRAM rate"} {
		if len(r.Points[sweep]) == 0 {
			t.Errorf("sweep %s empty", sweep)
		}
	}
	if !strings.Contains(r.Render(), "400MT/s") {
		t.Error("render missing sweep point")
	}
}

func TestNonIntensiveRuns(t *testing.T) {
	o := tinyOptions(t)
	// NonIntensive overrides Workloads itself with trace.All(); shrink the
	// run length instead.
	o.Instructions = 40_000
	o.Warmup = 15_000
	r, err := NonIntensive(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, base := range []string{"spp", "vldp", "ppf", "bop"} {
		if _, ok := r.Geomean[base]; !ok {
			t.Errorf("missing base %s", base)
		}
	}
	if !strings.Contains(r.Render(), "non-intensive") {
		t.Error("render missing title")
	}
}

func TestPerPrefetcherVariantStudyViaBase(t *testing.T) {
	o := tinyOptions(t)
	o.Workloads = o.Workloads[:3]
	o.Base = "vldp"
	r, err := Run("fig8", o)
	if err != nil {
		t.Fatal(err)
	}
	f8, ok := r.(*Fig8Result)
	if !ok {
		t.Fatalf("unexpected result type %T", r)
	}
	if f8.Base != "vldp" {
		t.Errorf("base = %s", f8.Base)
	}
}

func TestHTMLReport(t *testing.T) {
	o := tinyOptions(t)
	r8, err := Figure8(o)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	err = WriteHTMLReport(&buf, "report", []struct {
		Name   string
		Result Renderer
	}{{"fig8", r8}, {"table1", &TableIResult{Text: "Table I"}}})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<svg", "PSA-SD", "Table I", "shape checks: PASS", "</html>"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// A violating result must be reported as such.
	bad := &Fig8Result{Base: "spp", Geomean: map[string]float64{"PSA": -9, "PSA-2MB": -9, "PSA-SD": -20}}
	buf.Reset()
	WriteHTMLReport(&buf, "bad", []struct {
		Name   string
		Result Renderer
	}{{"fig8", bad}})
	if !strings.Contains(buf.String(), "shape violations") {
		t.Error("violations not surfaced in report")
	}
}
