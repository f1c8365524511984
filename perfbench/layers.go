package main

import (
	"time"

	"repro/internal/sim"
	"repro/internal/simcache"
)

// unattributedLimit is the reconciliation residual the traced run allows:
// the share of the traced measured window not covered by any layer's self
// time (the sampling loop around Core.Run and clock reads at the root).
const unattributedLimit = 0.05

// layerRun accumulates a traced run over several simulations.
type layerRun struct {
	t       *tracer
	results []sim.Result
	plain   []phases // untraced outside assembly
	traced  []phases
	refs    map[string]string // job → digest of sim.Run's result
}

func newLayerRun() *layerRun {
	return &layerRun{t: newTracer(), refs: map[string]string{}}
}

// traceJob runs one job three ways — sim.Run (once per job), the plain
// outside assembly, and the traced one — and requires all three results to
// be identical and the seam call counts to equal the layers' own counters.
func (b *bench) traceJob(lr *layerRun, j job, opt sim.RunOpt) {
	cfg := sim.DefaultConfig()
	name := j.String()
	if _, ok := lr.refs[name]; !ok {
		ref, err := sim.Run(cfg, j.spec, j.workload, opt)
		b.rep.check(err == nil, "%s: sim.Run: %v", name, err)
		lr.refs[name] = digest(ref)
	}
	res, ph, err := simulate(cfg, j, opt, nil)
	b.rep.check(err == nil && digest(res) == lr.refs[name], "%s: plain assembly differs from sim.Run (%v)", name, err)
	lr.plain = append(lr.plain, ph)

	t := lr.t
	walkSeen, walkRefs, dramSeen, dramOps := t.walkSeen, t.walkRefs, t.dramSeen, t.dramOps
	res, ph, err = simulate(cfg, j, opt, t)
	b.rep.check(err == nil && digest(res) == lr.refs[name], "%s: traced assembly differs from sim.Run (%v)", name, err)
	b.rep.check(t.walkSeen-walkSeen == t.walkRefs-walkRefs, "%s: walker port calls %d != MMU.WalkRefs %d",
		name, t.walkSeen-walkSeen, t.walkRefs-walkRefs)
	b.rep.check(t.dramSeen-dramSeen == t.dramOps-dramOps, "%s: DRAM port calls %d != Reads+Writes %d",
		name, t.dramSeen-dramSeen, t.dramOps-dramOps)
	lr.traced = append(lr.traced, ph)
	lr.results = append(lr.results, res)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// report adds the per-layer metrics of the traced simulations.
func (lr *layerRun) report(b *bench) {
	t := lr.t
	var instr, cycles, tlb1, tlb2, walks, l1dHit, l1dMiss, l2Miss, llcMiss, l2Drop float64
	var proposed, issued, cross, useful, late, unused, l2DemandMiss, dramOps, rowHit, rowMiss float64
	for _, r := range lr.results {
		instr += float64(r.Instructions)
		cycles += float64(r.Cycles)
		tlb1 += float64(r.TLBL1Misses)
		tlb2 += float64(r.TLBL2Misses)
		walks += float64(r.Walks)
		l1dHit += float64(r.L1D.DemandHits)
		l1dMiss += float64(r.L1D.DemandMisses)
		l2Miss += float64(r.L2.DemandMisses)
		llcMiss += float64(r.LLC.DemandMisses)
		l2Drop += float64(r.L2.PrefetchDropped)
		proposed += float64(r.Engine.Proposed)
		issued += float64(r.Engine.Issued)
		cross += float64(r.Engine.CrossedPage4K)
		useful += float64(r.L2.PrefetchUseful)
		late += float64(r.L2.PrefetchLate)
		unused += float64(r.L2.PrefetchUnused)
		l2DemandMiss += float64(r.L2.DemandMisses)
		dramOps += float64(r.DRAM.Reads + r.DRAM.Writes)
		rowHit += float64(r.DRAM.RowHits)
		rowMiss += float64(r.DRAM.RowMisses)
	}
	ki := instr / 1000
	ns := func(l layer) float64 { return float64(t.self[l]) }
	acc := float64(t.accesses)

	b.rep.add("trace.decode_ns_per_access", "ns/access", ratio(ns(layerTrace), float64(t.decoded)))
	b.rep.add("cpu.self_ns_per_instr", "ns/instr", ratio(ns(layerCPU), instr))
	b.rep.add("cpu.cycles_per_instr", "cycles/instr", ratio(cycles, instr))
	b.rep.add("sim.memsys_ns_per_access", "ns/access", ratio(ns(layerSim), acc))
	b.rep.add("vm.translate_ns_per_access", "ns/access", ratio(ns(layerVM), acc))
	b.rep.add("vm.walk_ref_ns_per_walk", "ns/walk", ratio(float64(t.walkIncl), walks))
	b.rep.add("vm.tlb_l1_mpki", "1/kinstr", ratio(tlb1, ki))
	b.rep.add("vm.tlb_l2_mpki", "1/kinstr", ratio(tlb2, ki))
	b.rep.add("vm.walks_pki", "1/kinstr", ratio(walks, ki))
	b.rep.add("cache.descent_ns_per_access", "ns/access", ratio(ns(layerCache), acc))
	b.rep.add("cache.l1d_hit_ratio", "ratio", ratio(l1dHit, l1dHit+l1dMiss))
	b.rep.add("cache.l2_mpki", "1/kinstr", ratio(l2Miss, ki))
	b.rep.add("cache.llc_mpki", "1/kinstr", ratio(llcMiss, ki))
	b.rep.add("cache.l2_pf_dropped_pki", "1/kinstr", ratio(l2Drop, ki))
	b.rep.add("core.engine_ns_per_l2_access", "ns/access", ratio(ns(layerCore), float64(t.l2Access)))
	b.rep.add("core.proposed_pki", "1/kinstr", ratio(proposed, ki))
	b.rep.add("core.issued_pki", "1/kinstr", ratio(issued, ki))
	b.rep.add("core.cross4k_pki", "1/kinstr", ratio(cross, ki))
	b.rep.add("core.l2_pf_accuracy", "ratio", ratio(useful+late, useful+late+unused))
	b.rep.add("core.l2_pf_coverage", "ratio", ratio(useful, useful+l2DemandMiss))
	b.rep.add("prefetch.l1_ns_per_access", "ns/access", ratio(ns(layerPrefetch), float64(t.calls[layerPrefetch])))
	b.rep.add("dram.ns_per_access", "ns/access", ratio(ns(layerDRAM), float64(t.dramSeen)))
	b.rep.add("dram.accesses_pki", "1/kinstr", ratio(dramOps, ki))
	b.rep.add("dram.row_hit_ratio", "ratio", ratio(rowHit, rowHit+rowMiss))

	var con, warm, meas []float64
	var plainMeasure, tracedMeasure time.Duration
	for i, p := range lr.plain {
		con = append(con, p.construct.Seconds())
		warm = append(warm, p.warmup.Seconds())
		meas = append(meas, p.measure.Seconds())
		plainMeasure += p.measure
		tracedMeasure += lr.traced[i].measure
	}
	b.rep.add("sim.construct_s", "s", median(con))
	b.rep.add("sim.warmup_s", "s", median(warm))
	b.rep.add("sim.measure_s", "s", median(meas))

	var selfSum int64
	for l := layer(0); l < numLayers; l++ {
		selfSum += t.self[l]
	}
	unattributed := ratio(float64(t.window-selfSum), float64(t.window))
	b.rep.add("traced.overhead_ratio", "ratio", ratio(float64(tracedMeasure), float64(plainMeasure)))
	b.rep.add("traced.unattributed_share", "ratio", unattributed)
	b.rep.check(unattributed >= 0 && unattributed < unattributedLimit,
		"traced layers leave %.2f%% of the measured window unattributed (limit %.0f%%)", 100*unattributed, 100*unattributedLimit)

	w := float64(t.window)
	b.rep.note("traced window %.3fs over %d simulations; self-time shares:", w/1e9, len(lr.results))
	for _, x := range []struct {
		name string
		l    layer
	}{{"cpu", layerCPU}, {"trace", layerTrace}, {"sim memsys", layerSim}, {"vm", layerVM}, {"cache", layerCache},
		{"core engine", layerCore}, {"L1 prefetch", layerPrefetch}, {"dram", layerDRAM}} {
		b.rep.note("  %-12s %6.2f%%  (%d spans)", x.name, 100*ns(x.l)/w, t.calls[x.l])
	}
	b.rep.note("  %-12s %6.2f%%", "unattributed", 100*unattributed)
	b.rep.note("phase split (plain assembly, median per simulation): construct %.4fs, warm-up %.4fs, measured %.4fs",
		median(con), median(warm), median(meas))
}

// simcacheLayer times result-cache key derivation and warm lookups over a
// store holding the jobs' entries, and reports the mean entry size.
func (b *bench) simcacheLayer(store *simcache.Store, jobs []job, opt sim.RunOpt) {
	cfg := sim.DefaultConfig()
	var keyT, hitT []float64
	for rep := 0; rep < 20; rep++ {
		for _, j := range jobs {
			t0 := time.Now()
			key := simcache.Key(cfg, j.spec, j.workload, opt)
			t1 := time.Now()
			_, ok := store.Get(key)
			t2 := time.Now()
			keyT = append(keyT, t1.Sub(t0).Seconds()*1e6)
			hitT = append(hitT, t2.Sub(t1).Seconds()*1e6)
			if rep == 0 {
				b.rep.check(ok, "simcache: no entry for %s", j)
			}
		}
	}
	bytes, files, err := dirBytes(store.Dir())
	b.rep.check(err == nil, "simcache: %v", err)
	b.rep.add("simcache.key_us", "us", median(keyT))
	b.rep.add("simcache.hit_us", "us", median(hitT))
	b.rep.add("simcache.entry_kb", "KB", ratio(float64(bytes), float64(files))/1024)
}

// rowsTraced is a row workload's traced run: the result cache layer over the
// rows, then traced passes over the rows until the budget is spent.
func rowsTraced(rs rowSet) func(b *bench) error {
	return func(b *bench) error {
		opt := rs.opt
		opt.Seed = b.seed
		start := time.Now()
		dir, err := b.scratch("rows-")
		if err != nil {
			return err
		}
		b.setupTail(sim.DefaultConfig(), rs.rows)
		b.checkStoredSeeds(rs.group, rs.rows, rs.opt)
		or := b.oracle(rs.group)
		if _, _, _, err := b.rowPass(rs, or, dir); err != nil {
			return err
		}
		store, err := simcache.New(dir)
		if err != nil {
			return err
		}
		b.simcacheLayer(store, rs.rows, opt)
		b.rep.add("simcache.warm_pass_s", "s", median(b.rowWarm(rs, store, opt)))
		b.rep.add("experiments.jobs", "count", 0)
		b.rep.add("experiments.sims_executed", "count", 0)
		noService(b)

		lr := newLayerRun()
		for pass := 0; pass == 0 || time.Since(start) < b.budget; pass++ {
			for _, j := range rs.rows {
				b.traceJob(lr, j, opt)
			}
		}
		lr.report(b)
		return nil
	}
}

// noService reports the service metrics of a workload that does not go
// through psimd.
func noService(b *bench) {
	b.rep.add("service.queue_wait_mean_s", "s", 0)
	b.rep.add("service.job_latency_s", "s", 0)
	b.rep.add("service.wire_kb_per_sim", "KB/sim", 0)
}

// figureTraced is a figure workload's traced run: one cold and several warm
// renders for the experiments, simcache and service layers, then traced
// passes over a seed-chosen sample of the figure's simulations.
func figureTraced(remote bool) func(b *bench) error {
	return func(b *bench) error {
		start := time.Now()
		jobs := fig8Jobs()
		b.setupTail(sim.DefaultConfig(), spread(jobs, 10, 0))
		b.checkStoredSeeds("fig8", spread(jobs, 8, b.seed), figRunOpt(0))
		or := b.oracle("fig8")
		g := &figureRig{b: b, remote: remote}
		defer g.close()
		if err := g.fresh(); err != nil {
			return err
		}
		if _, err := b.figurePass(g.opts, or); err != nil {
			return err
		}
		st := g.store.Stats()
		b.checkSims(g.store, or)
		const warmPasses = 9
		var warm []float64
		for i := 0; i < warmPasses; i++ {
			d, err := g.warmPass(or)
			if err != nil {
				return err
			}
			warm = append(warm, d.Seconds())
		}
		b.rep.add("simcache.warm_pass_s", "s", median(warm))
		b.rep.add("experiments.jobs", "count", float64(st.Hits+st.Shared+st.Misses))
		b.rep.add("experiments.sims_executed", "count", float64(st.Misses))
		b.simcacheLayer(g.store, spread(jobs, 40, b.seed), figRunOpt(b.seed))
		if remote {
			m, err := g.d.scrape()
			if err != nil {
				return err
			}
			b.rep.add("service.queue_wait_mean_s", "s",
				ratio(m["psimd_queue_wait_seconds_sum"], m["psimd_queue_wait_seconds_count"]))
			b.rep.add("service.job_latency_s", "s", m[`psimd_job_latency_seconds{quantile="0.5"}`])
			b.rep.add("service.wire_kb_per_sim", "KB/sim",
				float64(g.wire.n.Load())/1024/float64(len(jobs)*(1+warmPasses)))
		} else {
			noService(b)
		}
		g.close()

		lr := newLayerRun()
		sample := spread(jobs, 8, b.seed)
		for pass := 0; pass == 0 || time.Since(start) < b.budget; pass++ {
			for _, j := range sample {
				b.traceJob(lr, j, figRunOpt(b.seed))
			}
		}
		lr.report(b)
		return nil
	}
}
