package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// ---------------------------------------------------------------------------
// Figure 2 — probability of discarding a safe page-crossing prefetch
// ---------------------------------------------------------------------------

// Fig2Result holds, per prefetcher, the distribution of the probability that
// a proposed prefetch is discarded at the 4KB boundary although its block
// resides in a 2MB page.
type Fig2Result struct {
	PerPrefetcher map[string]stats.Summary
	PerWorkload   map[string]map[string]float64 // prefetcher → workload → p
}

// Figure2 evaluates the four original prefetchers across the workload set.
func Figure2(o Options) (*Fig2Result, error) {
	res := &Fig2Result{
		PerPrefetcher: map[string]stats.Summary{},
		PerWorkload:   map[string]map[string]float64{},
	}
	ws := o.workloads()
	for _, base := range sim.BaseNames() {
		g, err := runGrid(o, ws, sim.PrefSpec{Base: base, Variant: core.Original})
		if err != nil {
			return nil, err
		}
		ps := make([]float64, len(ws))
		perW := map[string]float64{}
		for i, w := range ws {
			ps[i] = g.result(i, 0).Engine.DiscardProbability()
			perW[w.Name] = ps[i]
		}
		res.PerPrefetcher[base] = stats.Summarize(ps)
		res.PerWorkload[base] = perW
	}
	return res, nil
}

// Render implements Renderer.
func (r *Fig2Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 2 — P(prefetch discarded at 4KB boundary | block in 2MB page)\n")
	b.WriteString("violin summaries per prefetcher:\n")
	fmt.Fprintf(&b, "%-6s %8s %8s %8s %8s %8s %8s %8s\n",
		"pref", "min", "p25", "median", "p75", "p90", "max", "mean")
	for _, base := range sim.BaseNames() {
		s := r.PerPrefetcher[base]
		fmt.Fprintf(&b, "%-6s %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f\n",
			strings.ToUpper(base), s.Min, s.P25, s.Median, s.P75, s.P90, s.Max, s.Mean)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 3 — fraction of memory mapped to 2MB pages over execution
// ---------------------------------------------------------------------------

// Fig3Result holds per-workload time series of the 2MB-mapped fraction.
type Fig3Result struct {
	Series map[string][]float64
	Order  []string
}

// Figure3 samples the THP allocator over execution of the nine benchmarks.
func Figure3(o Options) (*Fig3Result, error) {
	ws, err := WorkloadsByName(nineBenchmarks)
	if err != nil {
		return nil, err
	}
	g, err := runGrid(o, ws, sim.PrefSpec{Base: "none"})
	if err != nil {
		return nil, err
	}
	res := &Fig3Result{Series: map[string][]float64{}, Order: nineBenchmarks}
	for i, w := range ws {
		res.Series[w.Name] = g.result(i, 0).Frac2MOverTime
	}
	return res, nil
}

// Render implements Renderer.
func (r *Fig3Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 3 — % of allocated memory mapped to 2MB pages over execution\n")
	for _, name := range r.Order {
		fmt.Fprintf(&b, "%-14s", name)
		for _, f := range r.Series[name] {
			fmt.Fprintf(&b, " %5.1f", f*100)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figures 4 & 5 — the Magic studies on SPP
// ---------------------------------------------------------------------------

// MagicResult holds per-workload speedups over a no-prefetch baseline for the
// SPP Magic variants.
type MagicResult struct {
	Figure   int
	Variants []string
	// Speedup[variant][workload] is percent speedup over no prefetching.
	Speedup map[string]map[string]float64
	Geomean map[string]float64
	Order   []string
}

// magicStudy runs SPP under each variant, named in order by names, against
// a no-prefetch baseline on the nine benchmarks.
func magicStudy(o Options, figure int, names []string, variants ...core.Variant) (*MagicResult, error) {
	ws, err := WorkloadsByName(nineBenchmarks)
	if err != nil {
		return nil, err
	}
	specs := append([]sim.PrefSpec{{Base: "none"}}, variantSpecs("spp", variants...)...)
	g, err := runGrid(o, ws, specs...)
	if err != nil {
		return nil, err
	}
	res := &MagicResult{
		Figure:   figure,
		Variants: names,
		Speedup:  map[string]map[string]float64{},
		Geomean:  map[string]float64{},
		Order:    nineBenchmarks,
	}
	for i, name := range names {
		res.Speedup[name] = g.speedups(0, i+1)
		res.Geomean[name] = g.geomeanSpeedup(0, i+1)
	}
	return res, nil
}

// Figure4 compares SPP original with the oracle page-size-aware SPP
// (SPP-PSA-Magic) over a no-prefetch baseline.
func Figure4(o Options) (*MagicResult, error) {
	return magicStudy(o, 4, []string{"SPP", "SPP-PSA-Magic"},
		core.Original, core.PSAMagic)
}

// Figure5 adds the 2MB-indexed oracle variant (SPP-PSA-Magic-2MB).
func Figure5(o Options) (*MagicResult, error) {
	return magicStudy(o, 5, []string{"SPP", "SPP-PSA-Magic", "SPP-PSA-Magic-2MB"},
		core.Original, core.PSAMagic, core.PSAMagic2MB)
}

// Render implements Renderer.
func (r *MagicResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %d — speedup %% over no-prefetch baseline\n", r.Figure)
	fmt.Fprintf(&b, "%-14s", "workload")
	for _, v := range r.Variants {
		fmt.Fprintf(&b, " %18s", v)
	}
	b.WriteByte('\n')
	for _, w := range r.Order {
		fmt.Fprintf(&b, "%-14s", w)
		for _, v := range r.Variants {
			fmt.Fprintf(&b, " %18.1f", r.Speedup[v][w])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-14s", "GeoMean")
	for _, v := range r.Variants {
		fmt.Fprintf(&b, " %18.1f", r.Geomean[v])
	}
	b.WriteByte('\n')
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 8 — SPP PSA variants across all workloads
// ---------------------------------------------------------------------------

// Fig8Result holds per-workload speedups of the PSA variants over the
// original prefetcher.
type Fig8Result struct {
	Base     string
	Variants []string
	Speedup  map[string]map[string]float64 // variant → workload → %
	Geomean  map[string]float64
	Order    []string
}

// Figure8 evaluates SPP-PSA, SPP-PSA-2MB, and SPP-PSA-SD over SPP original
// across the full workload set.
func Figure8(o Options) (*Fig8Result, error) { return variantStudy(o, "spp") }

// sweepVariants are the variants Figures 8-9 and the crossing study run
// per base prefetcher; Original, first, is the baseline of the others.
var sweepVariants = []core.Variant{core.Original, core.PSA, core.PSA2MB, core.PSASD}

// variantStudy runs the PSA/PSA-2MB/PSA-SD comparison for one base
// prefetcher.
func variantStudy(o Options, base string) (*Fig8Result, error) {
	ws := o.workloads()
	g, err := runGrid(o, ws, variantSpecs(base, sweepVariants...)...)
	if err != nil {
		return nil, err
	}
	res := &Fig8Result{
		Base:     base,
		Variants: []string{"PSA", "PSA-2MB", "PSA-SD"},
		Speedup:  map[string]map[string]float64{},
		Geomean:  map[string]float64{},
	}
	for _, w := range ws {
		res.Order = append(res.Order, w.Name)
	}
	for s, v := range sweepVariants[1:] {
		res.Speedup[v.String()] = g.speedups(0, s+1)
		res.Geomean[v.String()] = g.geomeanSpeedup(0, s+1)
	}
	return res, nil
}

// Render implements Renderer.
func (r *Fig8Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8 — %s page-size-aware variants, speedup %% over %s original\n",
		strings.ToUpper(r.Base), strings.ToUpper(r.Base))
	fmt.Fprintf(&b, "%-18s %10s %10s %10s\n", "workload", "PSA", "PSA-2MB", "PSA-SD")
	for _, w := range r.Order {
		fmt.Fprintf(&b, "%-18s %10.1f %10.1f %10.1f\n",
			w, r.Speedup["PSA"][w], r.Speedup["PSA-2MB"][w], r.Speedup["PSA-SD"][w])
	}
	fmt.Fprintf(&b, "%-18s %10.1f %10.1f %10.1f\n",
		"GeoMean", r.Geomean["PSA"], r.Geomean["PSA-2MB"], r.Geomean["PSA-SD"])
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 9 — per-suite geomeans for all four prefetchers
// ---------------------------------------------------------------------------

// Fig9Result holds per-suite geomean speedups for every base prefetcher and
// PSA variant.
type Fig9Result struct {
	// Geomean[base][variant][suite] is geomean percent speedup.
	Geomean map[string]map[string]map[string]float64
}

// Figure9 evaluates the PSA, PSA-2MB, and PSA-SD versions of SPP, VLDP, PPF,
// and BOP across benchmark suites.
func Figure9(o Options) (*Fig9Result, error) {
	res := &Fig9Result{Geomean: map[string]map[string]map[string]float64{}}
	ws := o.workloads()
	for _, base := range sim.BaseNames() {
		g, err := runGrid(o, ws, variantSpecs(base, sweepVariants...)...)
		if err != nil {
			return nil, err
		}
		res.Geomean[base] = map[string]map[string]float64{}
		orig := g.ipcs(0)
		for s, v := range sweepVariants[1:] {
			ipcs := g.ipcs(s + 1)
			per := map[string]float64{}
			for _, suite := range suiteOrder() {
				var bases, vars []float64
				for i, w := range ws {
					if suite == "ALL" || suiteOf(w) == suite {
						bases = append(bases, orig[i])
						vars = append(vars, ipcs[i])
					}
				}
				per[suite] = stats.GeomeanSpeedup(bases, vars)
			}
			res.Geomean[base][v.String()] = per
		}
	}
	return res, nil
}

// Render implements Renderer.
func (r *Fig9Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 9 — geomean speedup % over each prefetcher's original version\n")
	fmt.Fprintf(&b, "%-6s %-9s", "pref", "variant")
	for _, s := range suiteOrder() {
		fmt.Fprintf(&b, " %13s", s)
	}
	b.WriteByte('\n')
	for _, base := range sim.BaseNames() {
		for _, v := range []string{"PSA", "PSA-2MB", "PSA-SD"} {
			fmt.Fprintf(&b, "%-6s %-9s", strings.ToUpper(base), v)
			for _, s := range suiteOrder() {
				fmt.Fprintf(&b, " %13.1f", r.Geomean[base][v][s])
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 10 — sources of improvement: latency, coverage, accuracy
// ---------------------------------------------------------------------------

// Fig10Row holds the metric deltas of one workload for one variant.
type Fig10Row struct {
	SpeedupPct                            float64
	L2LatReductionPct, LLCLatReductionPct float64 // positive is better
	L2CovDelta, LLCCovDelta               float64 // percentage points
	L2AccDelta, LLCAccDelta               float64 // percentage points
}

// Fig10Result holds per-workload metric deltas for SPP-PSA and SPP-PSA-SD
// over SPP original.
type Fig10Result struct {
	Rows  map[string]map[string]Fig10Row // variant → workload → row
	Order []string
}

// Figure10 computes the access-latency, coverage, and accuracy effects of the
// PSA and PSA-SD versions of SPP on representative workloads.
func Figure10(o Options) (*Fig10Result, error) {
	ws, err := WorkloadsByName(representative10)
	if err != nil {
		return nil, err
	}
	g, err := runGrid(o, ws, variantSpecs("spp", core.Original, core.PSA, core.PSASD)...)
	if err != nil {
		return nil, err
	}
	res := &Fig10Result{Rows: map[string]map[string]Fig10Row{}, Order: representative10}
	for s, vn := range []string{"PSA", "PSA-SD"} {
		rows := map[string]Fig10Row{}
		for i, w := range ws {
			base, varr := g.result(i, 0), g.result(i, s+1)
			row := Fig10Row{SpeedupPct: speedupPct(base.IPC, varr.IPC)}
			if l := base.L2.AvgDemandLatency(); l > 0 {
				row.L2LatReductionPct = (1 - varr.L2.AvgDemandLatency()/l) * 100
			}
			if l := base.LLC.AvgDemandLatency(); l > 0 {
				row.LLCLatReductionPct = (1 - varr.LLC.AvgDemandLatency()/l) * 100
			}
			row.L2CovDelta = (varr.L2.Coverage() - base.L2.Coverage()) * 100
			row.LLCCovDelta = (varr.LLC.Coverage() - base.LLC.Coverage()) * 100
			row.L2AccDelta = (varr.L2.Accuracy() - base.L2.Accuracy()) * 100
			row.LLCAccDelta = (varr.LLC.Accuracy() - base.LLC.Accuracy()) * 100
			rows[w.Name] = row
		}
		res.Rows[vn] = rows
	}
	return res, nil
}

// Render implements Renderer.
func (r *Fig10Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 10 — sources of improvement over SPP original\n")
	for _, v := range []string{"PSA", "PSA-SD"} {
		fmt.Fprintf(&b, "SPP-%s:\n", v)
		fmt.Fprintf(&b, "  %-16s %8s %9s %9s %8s %8s %8s %8s\n",
			"workload", "speedup%", "L2latRed%", "LLClatRed%", "L2covΔ", "LLCcovΔ", "L2accΔ", "LLCaccΔ")
		for _, w := range r.Order {
			row := r.Rows[v][w]
			fmt.Fprintf(&b, "  %-16s %8.1f %9.1f %9.1f %8.1f %8.1f %8.1f %8.1f\n",
				w, row.SpeedupPct, row.L2LatReductionPct, row.LLCLatReductionPct,
				row.L2CovDelta, row.LLCCovDelta, row.L2AccDelta, row.LLCAccDelta)
		}
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 11 — selection-logic implementations
// ---------------------------------------------------------------------------

// Fig11Result compares SD-Standard, SD-Page-Size, SD-Proposed, and
// ISO-storage per prefetcher (BOP excluded: its SD variants are identical).
type Fig11Result struct {
	// Geomean[base][scheme] is geomean % speedup over the original version.
	Geomean map[string]map[string]float64
	Schemes []string
}

// Figure11 evaluates the alternative selection-logic implementations.
func Figure11(o Options) (*Fig11Result, error) {
	order := []string{"SD-Standard", "SD-Page-Size", "SD-Proposed", "ISO-Storage"}
	res := &Fig11Result{Geomean: map[string]map[string]float64{}, Schemes: order}
	for _, base := range []string{"spp", "vldp", "ppf"} {
		g, err := runGrid(o, o.workloads(), variantSpecs(base, core.Original,
			core.SDStandard, core.SDPageSize, core.PSASD, core.ISOStorage)...)
		if err != nil {
			return nil, err
		}
		res.Geomean[base] = map[string]float64{}
		for s, name := range order {
			res.Geomean[base][name] = g.geomeanSpeedup(0, s+1)
		}
	}
	return res, nil
}

// Render implements Renderer.
func (r *Fig11Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 11 — selection-logic implementations, geomean speedup % over original\n")
	fmt.Fprintf(&b, "%-6s", "pref")
	for _, s := range r.Schemes {
		fmt.Fprintf(&b, " %13s", s)
	}
	b.WriteByte('\n')
	for _, base := range []string{"spp", "vldp", "ppf"} {
		fmt.Fprintf(&b, "%-6s", strings.ToUpper(base))
		for _, s := range r.Schemes {
			fmt.Fprintf(&b, " %13.1f", r.Geomean[base][s])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 12 — constrained evaluation sweeps
// ---------------------------------------------------------------------------

// Fig12Result holds the geomean speedups of PSA and PSA-SD under the three
// constraint sweeps.
type Fig12Result struct {
	// Sweeps[sweep][point][base][variant] = geomean % speedup over original.
	Sweeps map[string]map[string]map[string]map[string]float64
	Points map[string][]string
}

// Figure12 sweeps L2 MSHR size, LLC size, and DRAM bandwidth.
func Figure12(o Options) (*Fig12Result, error) {
	res := &Fig12Result{
		Sweeps: map[string]map[string]map[string]map[string]float64{},
		Points: map[string][]string{},
	}
	type point struct {
		name string
		cfg  sim.Config
	}
	mkPoints := func(sweep string) []point {
		var pts []point
		switch sweep {
		case "L2 MSHR":
			for _, n := range []int{8, 16, 32, 64, 128} {
				c := o.Config
				c.L2.MSHREntries = n
				pts = append(pts, point{fmt.Sprintf("%d-entry", n), c})
			}
		case "LLC size":
			for _, kb := range []int{256, 512, 1024, 2048} {
				c := o.Config
				c.LLC.Sets = kb << 10 / (64 * c.LLC.Ways)
				pts = append(pts, point{fmt.Sprintf("%dKB", kb), c})
			}
		case "DRAM rate":
			for _, mt := range []int{400, 800, 1600, 3200, 6400} {
				c := o.Config
				c.DRAM.TransferMTps = mt
				pts = append(pts, point{fmt.Sprintf("%dMT/s", mt), c})
			}
		}
		return pts
	}
	for _, sweep := range []string{"L2 MSHR", "LLC size", "DRAM rate"} {
		res.Sweeps[sweep] = map[string]map[string]map[string]float64{}
		for _, pt := range mkPoints(sweep) {
			res.Points[sweep] = append(res.Points[sweep], pt.name)
			res.Sweeps[sweep][pt.name] = map[string]map[string]float64{}
			po := o
			po.Config = pt.cfg
			for _, base := range sim.BaseNames() {
				g, err := runGrid(po, po.workloads(), variantSpecs(base, core.Original, core.PSA, core.PSASD)...)
				if err != nil {
					return nil, err
				}
				res.Sweeps[sweep][pt.name][base] = map[string]float64{
					"PSA":    g.geomeanSpeedup(0, 1),
					"PSA-SD": g.geomeanSpeedup(0, 2),
				}
			}
		}
	}
	return res, nil
}

// Render implements Renderer.
func (r *Fig12Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 12 — constrained evaluation, geomean speedup % over original\n")
	for _, sweep := range []string{"L2 MSHR", "LLC size", "DRAM rate"} {
		fmt.Fprintf(&b, "(%s)\n", sweep)
		fmt.Fprintf(&b, "  %-10s", "point")
		for _, base := range sim.BaseNames() {
			fmt.Fprintf(&b, " %9s-PSA %8s-SD", strings.ToUpper(base), strings.ToUpper(base))
		}
		b.WriteByte('\n')
		for _, pt := range r.Points[sweep] {
			fmt.Fprintf(&b, "  %-10s", pt)
			for _, base := range sim.BaseNames() {
				fmt.Fprintf(&b, " %13.1f %11.1f",
					r.Sweeps[sweep][pt][base]["PSA"], r.Sweeps[sweep][pt][base]["PSA-SD"])
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 13 — comparison with L1D prefetching
// ---------------------------------------------------------------------------

// Fig13Result holds the speedup over a no-prefetch baseline for the L1D
// prefetchers and the PSA/PSA-SD versions of the L2 prefetchers.
type Fig13Result struct {
	Speedup map[string]float64 // scheme → geomean speedup (× over no-prefetch)
	Order   []string
}

// Figure13 compares next-line, IPCP, and IPCP++ at the L1D against the
// page-size-aware L2 prefetchers. The baseline has no prefetching anywhere.
func Figure13(o Options) (*Fig13Result, error) {
	specs := []struct {
		name string
		spec sim.PrefSpec
	}{
		{"NL", sim.PrefSpec{Base: "none", L1: sim.L1NextLine}},
		{"IPCP", sim.PrefSpec{Base: "none", L1: sim.L1IPCP}},
		{"IPCP++", sim.PrefSpec{Base: "none", L1: sim.L1IPCPPP}},
		{"SPP-PSA", sim.PrefSpec{Base: "spp", Variant: core.PSA}},
		{"SPP-PSA-SD", sim.PrefSpec{Base: "spp", Variant: core.PSASD}},
		{"VLDP-PSA", sim.PrefSpec{Base: "vldp", Variant: core.PSA}},
		{"VLDP-PSA-SD", sim.PrefSpec{Base: "vldp", Variant: core.PSASD}},
		{"PPF-PSA", sim.PrefSpec{Base: "ppf", Variant: core.PSA}},
		{"PPF-PSA-SD", sim.PrefSpec{Base: "ppf", Variant: core.PSASD}},
		{"BOP-PSA", sim.PrefSpec{Base: "bop", Variant: core.PSA}},
		{"BOP-PSA-SD", sim.PrefSpec{Base: "bop", Variant: core.PSASD}},
	}
	all := []sim.PrefSpec{{Base: "none"}}
	for _, s := range specs {
		all = append(all, s.spec)
	}
	g, err := runGrid(o, o.workloads(), all...)
	if err != nil {
		return nil, err
	}
	res := &Fig13Result{Speedup: map[string]float64{}}
	for i, s := range specs {
		res.Speedup[s.name] = stats.Geomean(ratios(g.ipcs(0), g.ipcs(i+1)))
		res.Order = append(res.Order, s.name)
	}
	return res, nil
}

func ratios(base, variant []float64) []float64 {
	out := make([]float64, len(base))
	for i := range base {
		if base[i] <= 0 {
			out[i] = 1
			continue
		}
		out[i] = variant[i] / base[i]
	}
	return out
}

// Render implements Renderer.
func (r *Fig13Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 13 — geomean speedup (×) over a no-prefetch baseline\n")
	for _, n := range r.Order {
		fmt.Fprintf(&b, "  %-12s %6.3f\n", n, r.Speedup[n])
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Non-intensive workloads (Section VI-B1)
// ---------------------------------------------------------------------------

// NonIntensiveResult extends the evaluation with the non-intensive SPEC
// workloads.
type NonIntensiveResult struct {
	// Geomean[base][variant] across the extended set.
	Geomean map[string]map[string]float64
}

// NonIntensive evaluates all prefetchers over intensive plus non-intensive
// workloads.
func NonIntensive(o Options) (*NonIntensiveResult, error) {
	o.Workloads = trace.All()
	res := &NonIntensiveResult{Geomean: map[string]map[string]float64{}}
	for _, base := range sim.BaseNames() {
		fig, err := variantStudy(o, base)
		if err != nil {
			return nil, err
		}
		res.Geomean[base] = fig.Geomean
	}
	return res, nil
}

// Render implements Renderer.
func (r *NonIntensiveResult) Render() string {
	var b strings.Builder
	b.WriteString("Section VI-B1 — geomean speedup % including non-intensive workloads\n")
	fmt.Fprintf(&b, "%-6s %10s %10s %10s\n", "pref", "PSA", "PSA-2MB", "PSA-SD")
	for _, base := range sim.BaseNames() {
		fmt.Fprintf(&b, "%-6s %10.1f %10.1f %10.1f\n", strings.ToUpper(base),
			r.Geomean[base]["PSA"], r.Geomean[base]["PSA-2MB"], r.Geomean[base]["PSA-SD"])
	}
	return b.String()
}
