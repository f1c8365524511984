package experiments

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/progress"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// MultiResult holds the distribution of weighted speedups over random mixes
// for each prefetcher variant (Figures 14 and 15).
type MultiResult struct {
	Cores    int
	Schemes  []string
	Summary  map[string]stats.Summary
	Speedups map[string][]float64 // per-mix weighted-speedup % over original
}

// Figure14 runs the 4-core evaluation.
func Figure14(o Options) (*MultiResult, error) { return multicore(o, 4) }

// Figure15 runs the 8-core evaluation.
func Figure15(o Options) (*MultiResult, error) { return multicore(o, 8) }

// mixesFor deterministically draws n random mixes of k workloads each.
func mixesFor(o Options, cores, n int) [][]trace.Workload {
	ws := o.workloads()
	state := o.Seed*0x9e3779b97f4a7c15 + uint64(cores)
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	mixes := make([][]trace.Workload, n)
	for i := range mixes {
		mix := make([]trace.Workload, cores)
		for c := range mix {
			mix[c] = ws[next()%uint64(len(ws))]
		}
		mixes[i] = mix
	}
	return mixes
}

// multicore evaluates PSA and PSA-SD for every base prefetcher over random
// mixes, reporting weighted speedup over the original prefetcher as in
// Section V-B: WS = Σ IPC_mc/IPC_iso, normalised by the baseline's WS.
func multicore(o Options, cores int) (*MultiResult, error) {
	nMixes := o.Mixes
	if nMixes <= 0 {
		nMixes = 20
	}
	mixes := mixesFor(o, cores, nMixes)
	cfg := o.Config
	cfg.PhysBytes = 32 << 30
	// Both multi-core configurations share an identical dual-channel DRAM,
	// which is exactly the paper's argument for the lower 8-core gains (our
	// synthetic workloads demand roughly twice the bandwidth of SimPointed
	// traces, so the channel count keeps the contention regime comparable).
	cfg.DRAM.Channels = 2
	opt := o.runOpt()

	// Every base prefetcher runs as spec 3b (original, the baseline) and
	// specs 3b+1 and 3b+2 (PSA, PSA-SD).
	variants := []core.Variant{core.Original, core.PSA, core.PSASD}
	var specs []sim.PrefSpec
	for _, base := range sim.BaseNames() {
		specs = append(specs, variantSpecs(base, variants...)...)
	}

	// Isolation IPCs per (workload, spec) are shared across mixes: compute
	// them once on the multi-core-spec machine, over the distinct workloads
	// of all mixes in order of first appearance.
	var distinct []trace.Workload
	index := map[string]int{} // workload name → position in distinct
	for _, mix := range mixes {
		for _, w := range mix {
			if _, ok := index[w.Name]; !ok {
				index[w.Name] = len(distinct)
				distinct = append(distinct, w)
			}
		}
	}
	po := o
	po.Config = cfg
	iso, err := runGrid(po, distinct, specs...)
	if err != nil {
		return nil, err
	}

	// Weighted speedup of every (spec, mix). Mix runs always simulate
	// locally (a Remote runner only covers single-core batches), but they
	// honour the batch context at epoch boundaries.
	ws := make([][]float64, len(specs)) // ws[spec][mix]
	errs := make([]error, len(specs)*len(mixes))
	par := o.Parallelism
	if par <= 0 {
		par = 1
	}
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	tr := progress.New(o.Progress, o.Label+" mixes", len(errs))
	for s := range specs {
		ws[s] = make([]float64, len(mixes))
	}
	for m, mix := range mixes {
		for s, spec := range specs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				res, err := sim.RunMultiContext(o.ctx(), cfg, spec, mix, opt)
				tr.Step(false)
				if err != nil {
					errs[m*len(specs)+s] = fmt.Errorf("mix %d, %s: %w", m, spec, err)
					return
				}
				isoIPC := make([]float64, len(mix))
				for c, w := range mix {
					isoIPC[c] = iso.result(index[w.Name], s).IPC
				}
				ws[s][m] = stats.WeightedSpeedup(res.IPC, isoIPC)
			}()
		}
	}
	wg.Wait()
	tr.Finish()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	out := &MultiResult{
		Cores:    cores,
		Summary:  map[string]stats.Summary{},
		Speedups: map[string][]float64{},
	}
	for b, base := range sim.BaseNames() {
		for k := 1; k < len(variants); k++ {
			name := strings.ToUpper(base) + "-" + variants[k].String()
			var pct []float64
			for m := range mixes {
				if baseline := ws[b*len(variants)][m]; baseline > 0 {
					pct = append(pct, (ws[b*len(variants)+k][m]/baseline-1)*100)
				}
			}
			out.Schemes = append(out.Schemes, name)
			out.Speedups[name] = pct
			out.Summary[name] = stats.Summarize(pct)
		}
	}
	return out, nil
}

// Render implements Renderer.
func (r *MultiResult) Render() string {
	var b strings.Builder
	fig := 14
	if r.Cores == 8 {
		fig = 15
	}
	fmt.Fprintf(&b, "Figure %d — %d-core weighted speedup %% over original, distribution across mixes\n",
		fig, r.Cores)
	fmt.Fprintf(&b, "%-14s %8s %8s %8s %8s %8s %8s %16s (n=%d)\n",
		"scheme", "min", "p25", "median", "p75", "max", "mean", "mean 95%CI", r.Summary[r.Schemes[0]].N)
	for _, s := range r.Schemes {
		sum := r.Summary[s]
		lo, hi := stats.BootstrapCI(r.Speedups[s], 0.95, 500)
		fmt.Fprintf(&b, "%-14s %8.1f %8.1f %8.1f %8.1f %8.1f %8.1f   [%5.1f,%5.1f]\n",
			s, sum.Min, sum.P25, sum.Median, sum.P75, sum.Max, sum.Mean, lo, hi)
	}
	return b.String()
}
