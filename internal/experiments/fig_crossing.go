package experiments

import (
	"fmt"
	"strings"
)

// ---------------------------------------------------------------------------
// Crossing study — physical (PPM) vs virtual (TLB-gated) page crossing
// ---------------------------------------------------------------------------

// CrossingResult compares the two ways a prefetch earns the right to cross a
// 4KB line on one axis: pangloss crosses physically, licensed by the PPM
// page-size bit; vamp crosses virtually, licensed by a TLB-resident
// translation of the target page. Both land in the engine's CrossedPage4K
// counter (computed on physical addresses), so crossed-prefetches-per-kilo-
// instruction is directly comparable between the two mechanisms.
type CrossingResult struct {
	Families []string // base prefetchers, in render order
	Variants []string // speedup columns (relative to each family's Original)
	// Speedup[family][variant][workload] is percent speedup over the
	// family's Original variant.
	Speedup map[string]map[string]map[string]float64
	Geomean map[string]map[string]float64
	// CrossedPKI[family][variant] is the mean number of issued prefetches
	// that crossed a 4KB line per kilo-instruction, across workloads —
	// including the Original variants, whose boundary policy pins it to 0.
	CrossedPKI map[string]map[string]float64
	// VASharePct[family][variant] is the percentage of issued prefetches
	// that originated as virtual candidates (0 for physical-only families).
	VASharePct map[string]map[string]float64
	// UntranslatedPct[family][variant] is the percentage of virtual
	// candidates dropped at the TLB-residency gate, relative to issued+dropped.
	UntranslatedPct map[string]map[string]float64
	Order           []string
}

// crossingFamilies are the two new prefetcher families: one crossing in
// physical address space under PPM, one in virtual address space under the
// TLB-residency gate.
func crossingFamilies() []string { return []string{"pangloss", "vamp"} }

// Crossing runs both families through the Original/PSA/PSA-2MB/PSA-SD sweep
// across the workload set.
func Crossing(o Options) (*CrossingResult, error) {
	res := &CrossingResult{
		Families:        crossingFamilies(),
		Variants:        []string{"PSA", "PSA-2MB", "PSA-SD"},
		Speedup:         map[string]map[string]map[string]float64{},
		Geomean:         map[string]map[string]float64{},
		CrossedPKI:      map[string]map[string]float64{},
		VASharePct:      map[string]map[string]float64{},
		UntranslatedPct: map[string]map[string]float64{},
	}
	ws := o.workloads()
	for _, w := range ws {
		res.Order = append(res.Order, w.Name)
	}
	for _, base := range res.Families {
		g, err := runGrid(o, ws, variantSpecs(base, sweepVariants...)...)
		if err != nil {
			return nil, err
		}
		res.Speedup[base] = map[string]map[string]float64{}
		res.Geomean[base] = map[string]float64{}
		res.CrossedPKI[base] = map[string]float64{}
		res.VASharePct[base] = map[string]float64{}
		res.UntranslatedPct[base] = map[string]float64{}
		// Original, the per-family baseline, is the zero point of the
		// crossing axis.
		for s, v := range sweepVariants {
			var crossed, issued, va, untr, kiloInstr float64
			for w := range ws {
				r := g.result(w, s)
				crossed += float64(r.Engine.CrossedPage4K)
				issued += float64(r.Engine.Issued)
				va += float64(r.Engine.VAIssued)
				untr += float64(r.Engine.DiscardedUntranslated)
				kiloInstr += float64(r.Instructions) / 1000
			}
			name := v.String()
			if kiloInstr > 0 {
				res.CrossedPKI[base][name] = crossed / kiloInstr
			}
			if issued > 0 {
				res.VASharePct[base][name] = va / issued * 100
			}
			if va+untr > 0 {
				res.UntranslatedPct[base][name] = untr / (va + untr) * 100
			}
			if s == 0 {
				continue
			}
			res.Speedup[base][name] = g.speedups(0, s)
			res.Geomean[base][name] = g.geomeanSpeedup(0, s)
		}
	}
	return res, nil
}

// Render implements Renderer.
func (r *CrossingResult) Render() string {
	var b strings.Builder
	b.WriteString("Crossing — PPM physical crossing (pangloss) vs TLB-gated virtual crossing (vamp)\n")
	for _, base := range r.Families {
		fmt.Fprintf(&b, "%s: speedup %% over %s original\n",
			strings.ToUpper(base), strings.ToUpper(base))
		fmt.Fprintf(&b, "  %-18s %10s %10s %10s\n", "workload", "PSA", "PSA-2MB", "PSA-SD")
		for _, w := range r.Order {
			fmt.Fprintf(&b, "  %-18s %10.1f %10.1f %10.1f\n", w,
				r.Speedup[base]["PSA"][w], r.Speedup[base]["PSA-2MB"][w], r.Speedup[base]["PSA-SD"][w])
		}
		fmt.Fprintf(&b, "  %-18s %10.1f %10.1f %10.1f\n", "GeoMean",
			r.Geomean[base]["PSA"], r.Geomean[base]["PSA-2MB"], r.Geomean[base]["PSA-SD"])
	}
	b.WriteString("crossed 4KB lines per kilo-instruction (0 under the Original boundary)\n")
	fmt.Fprintf(&b, "  %-10s %10s %10s %10s %10s\n", "family", "Original", "PSA", "PSA-2MB", "PSA-SD")
	for _, base := range r.Families {
		fmt.Fprintf(&b, "  %-10s %10.3f %10.3f %10.3f %10.3f\n", base,
			r.CrossedPKI[base]["Original"], r.CrossedPKI[base]["PSA"],
			r.CrossedPKI[base]["PSA-2MB"], r.CrossedPKI[base]["PSA-SD"])
	}
	b.WriteString("virtual-candidate share of issued prefetches (%) / dropped at TLB gate (%)\n")
	for _, base := range r.Families {
		fmt.Fprintf(&b, "  %-10s", base)
		for _, v := range []string{"Original", "PSA", "PSA-2MB", "PSA-SD"} {
			fmt.Fprintf(&b, " %6.1f/%-6.1f", r.VASharePct[base][v], r.UntranslatedPct[base][v])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
