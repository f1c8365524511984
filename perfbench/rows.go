package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/simcache"
	"repro/internal/trace"
)

// job is one single-core simulation: a catalogue workload under a
// prefetching spec.
type job struct {
	workload trace.Workload
	spec     sim.PrefSpec
}

func (j job) String() string { return j.workload.Name + "/" + j.spec.String() }

// rowSet is a single-core row workload: fixed rows at one window, plus an
// optional multi-core mix run through sim.RunMulti.
type rowSet struct {
	group   string
	rows    []job
	opt     sim.RunOpt // Seed is set per run
	mix     []trace.Workload
	mixSpec sim.PrefSpec
	mixOpt  sim.RunOpt
}

func mustWorkload(name string) trace.Workload {
	w, err := trace.ByName(name)
	if err != nil {
		panic(err)
	}
	return w
}

func mustJob(name string, spec sim.PrefSpec) job { return job{mustWorkload(name), spec} }

// rowOpt is the single-core row window: 200k warm-up plus 1M measured
// instructions, sampled like the experiment harness (8 Frac2M samples).
var rowOpt = sim.RunOpt{Warmup: 200_000, Instructions: 1_000_000, Samples: 8}

// streamPF: 2MB-page-heavy stream and graph rows under the most expensive
// prefetch engines; nearly every access hits the L1D and the TLB.
var streamPF = rowSet{
	group: "stream_pf",
	rows: []job{
		mustJob("libquantum", sim.PrefSpec{Base: "spp", Variant: core.PSASD}),
		mustJob("lbm", sim.PrefSpec{Base: "ppf", Variant: core.PSASD}),
		mustJob("bwaves", sim.PrefSpec{Base: "spp", Variant: core.PSA, L1: sim.L1IPCPPP}),
		mustJob("pr.road", sim.PrefSpec{Base: "pangloss", Variant: core.PSASD}),
	},
	opt: rowOpt,
}

// missWalk: 4KB-page-heavy gathers and pointer chases (walks, L2 misses,
// MSHR-saturating prefetch bursts), plus one 4-core mix of the same
// workloads, the only path with a shared, contended LLC and DRAM. These rows
// simulate at half the stream rows' speed, so their windows are half as long:
// a run then times each row about as often as stream_pf does.
var missWalk = rowSet{
	group: "miss_walk",
	rows: []job{
		mustJob("mcf", sim.PrefSpec{Base: "ppf", Variant: core.PSA}),
		mustJob("omnetpp", sim.PrefSpec{Base: "bop", Variant: core.PSA}),
		mustJob("soplex", sim.PrefSpec{Base: "vldp", Variant: core.Original}),
		mustJob("milc", sim.PrefSpec{Base: "spp", Variant: core.PSA2MB}),
		mustJob("milc", sim.PrefSpec{Base: "vamp", Variant: core.PSA}),
	},
	opt: sim.RunOpt{Warmup: 100_000, Instructions: 500_000, Samples: 8},
	mix: []trace.Workload{
		mustWorkload("mcf"), mustWorkload("omnetpp"), mustWorkload("soplex"), mustWorkload("milc"),
	},
	mixSpec: sim.PrefSpec{Base: "spp", Variant: core.PSASD},
	mixOpt:  sim.RunOpt{Warmup: 25_000, Instructions: 100_000, Samples: 8},
}

// rowWarmPasses is how many warm passes a row workload's traced run times;
// a warm pass is a handful of cache reads, so they add little to the run.
const rowWarmPasses = 400

// rowWarm serves the rows from a warm cache rowWarmPasses times, checking
// that nothing simulates, and returns each pass's wall time.
func (b *bench) rowWarm(rs rowSet, store *simcache.Store, opt sim.RunOpt) []float64 {
	var warm []float64
	for len(warm) < rowWarmPasses {
		before := store.Stats().Misses
		t0 := time.Now()
		for _, j := range rs.rows {
			key := simcache.Key(sim.DefaultConfig(), j.spec, j.workload, opt)
			_, _, err := store.DoContext(context.Background(), key, func(context.Context) (sim.Result, error) {
				return sim.Result{}, fmt.Errorf("%s: warm pass missed the cache", j)
			})
			b.rep.check(err == nil, "warm %s: %v", j, err)
		}
		warm = append(warm, time.Since(t0).Seconds())
		b.rep.check(store.Stats().Misses == before, "warm pass executed simulations")
	}
	return warm
}

// setupRounds is how many times the setup phase constructs every system of
// the workload. Each round gives one sample, so the tail is the 83rd
// percentile (ten samples beyond it).
const setupRounds = 60

// setupTimes constructs systems with sim.Run at zero-length windows and
// returns, per round, the mean wall-clock construction time of the
// workload's systems. A round's mean, not a single construction, is the
// sample: single constructions take a fraction of a millisecond, and host
// interruptions then set the tail. The times are not scaled to the reference
// speed (speed.go): construction mostly allocates and zeroes memory, which
// the kernel does not track, and scaling 1 ms rounds by 4 ms kernels doubled
// the run-to-run spread of the median (miss_walk: 0.16 wall clock, 0.31
// scaled).
func (b *bench) setupTimes(cfg sim.Config, jobs []job) []float64 {
	// One untimed construction per job first: trace generators memoize
	// per-workload tables on first use, a once-per-process cost.
	for _, j := range jobs {
		_, err := sim.Run(cfg, j.spec, j.workload, sim.RunOpt{Seed: b.seed})
		b.rep.check(err == nil, "setup %s: %v", j, err)
	}
	times := make([]float64, 0, setupRounds)
	for r := 0; r < setupRounds; r++ {
		var total time.Duration
		for _, j := range jobs {
			// Each construction starts from a collected heap, so it is timed
			// without collecting its predecessors' garbage.
			runtime.GC()
			t0 := time.Now()
			_, err := sim.Run(cfg, j.spec, j.workload, sim.RunOpt{Seed: b.seed})
			total += time.Since(t0)
			b.rep.check(err == nil, "setup %s: %v", j, err)
		}
		times = append(times, total.Seconds()/float64(len(jobs)))
	}
	b.rep.note("setup: %d rounds of %d constructions", len(times), len(jobs))
	return times
}

// measureSetup reports setup_s, the median of setupTimes.
func (b *bench) measureSetup(cfg sim.Config, jobs []job) {
	b.rep.add("setup_s", "s", median(b.setupTimes(cfg, jobs)))
}

// setupTail reports sim.setup_tail_s: the highest percentile of setupTimes
// with ten samples beyond it. Host interruptions move a tail too much for an
// end-to-end bound, so the traced run reports it.
func (b *bench) setupTail(cfg sim.Config, jobs []job) {
	v, pct := tail(b.setupTimes(cfg, jobs))
	b.rep.add("sim.setup_tail_s", "s", v)
	b.rep.note("sim.setup_tail_s is the p%.1f of the %d round means (10 beyond it)", pct, setupRounds)
}

// nominalInstr is the instruction count a run simulates: warm-up plus
// measured, on every core.
func nominalInstr(opt sim.RunOpt, cores int) float64 {
	return float64(cores) * float64(opt.Warmup+opt.Instructions)
}

// retainedHeap collects garbage and returns the live heap in MB: what the
// process keeps once a workload's passes are done (the trace generators'
// memoized tables, results, the runtime). The peak live heap during the
// passes depends on which allocations a collection happens to catch in
// flight and varied by up to 1.4x between identical runs. It collects twice:
// the first collection only moves sync.Pool contents to the pools' victim
// caches, and whether those still held a buffer varied the result by 0.5 MB.
func retainedHeap() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// allocMeter measures heap allocation over an interval.
type allocMeter struct{ mallocs, bytes uint64 }

func startAllocs() allocMeter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocMeter{ms.Mallocs, ms.TotalAlloc}
}

func (a allocMeter) since() (mallocs, bytes float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs - a.mallocs), float64(ms.TotalAlloc - a.bytes)
}

// rowPass runs every row once through a fresh result cache (the same
// cache-then-simulate path the experiment harness takes), plus the mix, and
// checks each result with the oracle. It returns each row's wall time and
// its time at the reference speed (the mix last in both), and the results.
func (b *bench) rowPass(rs rowSet, or *oracle, dir string) (wall, ref []float64, results []sim.Result, err error) {
	store, err := simcache.New(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	opt := rs.opt
	opt.Seed = b.seed
	cal := gauge()
	timed := func(t0 time.Time) {
		t := time.Since(t0).Seconds()
		after := gauge()
		wall = append(wall, t)
		ref = append(ref, atRef(t, cal, after))
		cal = after
	}
	results = make([]sim.Result, len(rs.rows))
	for i, j := range rs.rows {
		t0 := time.Now()
		key := simcache.Key(sim.DefaultConfig(), j.spec, j.workload, opt)
		res, _, err := store.DoContext(context.Background(), key, func(ctx context.Context) (sim.Result, error) {
			return sim.RunContext(ctx, sim.DefaultConfig(), j.spec, j.workload, opt)
		})
		timed(t0)
		b.rep.check(err == nil, "%s: %v", j, err)
		or.check(j.String(), digest(res))
		results[i] = res
	}
	if len(rs.mix) > 0 {
		mopt := rs.mixOpt
		mopt.Seed = b.seed
		t0 := time.Now()
		mr, err := sim.RunMulti(sim.DefaultConfig(), rs.mixSpec, rs.mix, mopt)
		timed(t0)
		b.rep.check(err == nil, "mix: %v", err)
		or.check("mix/"+rs.mixSpec.String(), digest(mr))
		for _, ipc := range mr.IPC {
			results = append(results, sim.Result{IPC: ipc})
		}
	}
	return wall, ref, results, nil
}

// rowsEndToEnd measures a row workload untraced: construction time, then
// repeated cold passes (each row simulated into an empty result cache) for
// the budget, then the oracle's simulations at the stored seeds.
func rowsEndToEnd(rs rowSet) func(b *bench) error {
	return func(b *bench) error {
		b.measureSetup(sim.DefaultConfig(), rs.rows)
		or := b.oracle(rs.group)

		// One untimed pass lets the heap and the host caches settle; its
		// results are checked like every other pass.
		dir, err := b.scratch("ref-")
		if err != nil {
			return err
		}
		if _, _, _, err := b.rowPass(rs, or, dir); err != nil {
			return err
		}

		runtime.GC()
		allocs := startAllocs()
		perRow := make([][]float64, len(rs.rows)+1)  // at the reference speed; the mix, if any, last
		wallRow := make([][]float64, len(rs.rows)+1) // wall clock
		var passTimes []float64                      // wall clock, for the budget
		var results []sim.Result
		start := time.Now()
		for len(passTimes) == 0 || b.fits(start, median(passTimes)) {
			dir, err := b.scratch("cold-")
			if err != nil {
				return err
			}
			wall, ref, res, err := b.rowPass(rs, or, dir)
			if err != nil {
				return err
			}
			results = res
			pass := 0.0
			for i, t := range wall {
				perRow[i] = append(perRow[i], ref[i])
				wallRow[i] = append(wallRow[i], t)
				pass += t
			}
			passTimes = append(passTimes, pass)
		}
		mallocs, bytes := allocs.since()
		opt := rs.opt
		opt.Seed = b.seed

		// A row's time is the low decile of its passes at the reference
		// speed: interference from other tenants only ever adds time, and
		// the kernel does not see all of it (the median of the same times
		// still spread 0.08–0.16 between runs of one seed, the low decile
		// 0.02–0.08).
		instr, rowTotal, wallTotal := 0.0, 0.0, 0.0
		for i := range rs.rows {
			instr += nominalInstr(opt, 1)
			rowTotal += lowDecile(perRow[i])
			wallTotal += median(wallRow[i])
		}
		sims := float64(len(rs.rows))
		if len(rs.mix) > 0 {
			instr += nominalInstr(rs.mixOpt, len(rs.mix))
			rowTotal += lowDecile(perRow[len(rs.rows)])
			wallTotal += median(wallRow[len(rs.rows)])
			sims++
		}
		var ipcs []float64
		for _, r := range results {
			ipcs = append(ipcs, r.IPC)
		}
		passes := float64(len(passTimes))
		b.rep.add("sim_minstr_per_s", "Minstr/s", instr/rowTotal/1e6)
		b.rep.add("figure_cold_s", "s", rowTotal)
		b.rep.add("allocs_per_kinstr", "allocs/kinstr", mallocs/(instr*passes/1000))
		b.rep.add("alloc_mb_per_sim", "MB/sim", bytes/(sims*passes)/(1<<20))
		b.rep.add("retained_heap_mb", "MB", retainedHeap())
		b.rep.add("sim_ipc_geomean", "IPC", geomean(ipcs))
		b.rep.note("%s: %d cold passes (wall-clock median %.3fs), seed %d, oracle: %s",
			rs.group, len(passTimes), median(passTimes), b.seed, oracleKind(or))
		b.rep.note("  wall clock: %.3fs, %.2f Minstr/s (per-row medians summed); at the reference speed: %.3fs (per-row low deciles summed)",
			wallTotal, instr/wallTotal/1e6, rowTotal)
		for i, j := range rs.rows {
			t := lowDecile(perRow[i])
			b.rep.note("  %-28s %7.3fs %6.2f Minstr/s IPC %.4f (reference speed)", j, t, nominalInstr(opt, 1)/t/1e6, results[i].IPC)
		}
		if len(rs.mix) > 0 {
			t := lowDecile(perRow[len(rs.rows)])
			b.rep.note("  %-28s %7.3fs %6.2f Minstr/s (reference speed)", fmt.Sprintf("mix(%d)/%s", len(rs.mix), rs.mixSpec), t,
				nominalInstr(rs.mixOpt, len(rs.mix))/t/1e6)
		}
		// Last: the trace generators memoize tables per seed, so these
		// simulations at the stored seeds would otherwise count in
		// retained_heap_mb at every seed but the stored ones.
		b.checkStoredSeeds(rs.group, rs.rows, rs.opt)
		return nil
	}
}

func oracleKind(o *oracle) string {
	switch {
	case o.b.record:
		return "recording digests"
	case o.hasStored():
		return "stored digests"
	}
	return "self-consistency (no stored digests for this seed)"
}
