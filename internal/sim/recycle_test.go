package sim

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/slabpool"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vm"
)

// pinPool runs the rest of the test with one processor and collection off,
// restoring both on cleanup. A collection empties the slab pools, and
// sync.Pool's own bookkeeping (its per-processor tables and shared chains)
// allocates on whichever processor a run lands on, so only then does every
// run find the storage its predecessor released and allocate the same bytes.
func pinPool(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a quarter of its Puts at random")
	}
	pinProcs(t)
}

// pinProcs runs the rest of the test with one processor and collection off,
// restoring both on cleanup, so that no collection lands inside a
// measurement and sync.Pool sizes its per-processor tables alike every time.
func pinProcs(t *testing.T) {
	t.Helper()
	procs := runtime.GOMAXPROCS(1)
	gc := debug.SetGCPercent(-1)
	t.Cleanup(func() {
		debug.SetGCPercent(gc)
		runtime.GOMAXPROCS(procs)
	})
}

// allocated returns the heap bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestRunBytesBudget pins the heap bytes a whole run allocates — construction,
// a 20k-instruction warm-up and an 80k measured window — when it follows
// another run: the rows alternate, and every run after the first of each
// recycles its predecessor's storage (cache slabs, frame bitmap, page-table
// slabs, TLB arrays, the core's ROB and trace batch, the prefetchers'
// tables) instead of allocating it anew: for one core, 578 KB of cache
// storage, 166–262 KB of VM and core storage and 18–513 KB of prefetcher
// tables (two 9.1 KB SPPs for spp-PSA-SD, two 65 KB PPFs for ppf-PSA-SD,
// one 513 KB 2MB-region vamp map). What is left is about 10 KB of per-run
// objects per core. The mix's allocator covers its scaled physical memory,
// a bitmap of its own shape. Byte counts are deterministic with collection
// off and one processor (pinPool), so each row allows 5% above its recorded
// value. TestAllocsPerAccessGate counts objects only: storage that goes
// back to one allocation per simulation keeps the object count and fails
// here.
func TestRunBytesBudget(t *testing.T) {
	pinPool(t)
	opt := RunOpt{Warmup: 20_000, Instructions: 80_000, Seed: 1, Samples: 8}
	single := func(workload string, spec PrefSpec) func() {
		w := mustWorkload(t, workload)
		return func() {
			if _, err := Run(DefaultConfig(), spec, w, opt); err != nil {
				t.Fatal(err)
			}
		}
	}
	mix := []trace.Workload{mustWorkload(t, "libquantum"), mustWorkload(t, "mcf"),
		mustWorkload(t, "milc"), mustWorkload(t, "pr.road")}
	rows := []struct {
		name string
		run  func()
		kb   float64 // heap KB per run after the first
	}{
		{"libquantum/spp-PSA-SD", single("libquantum", PrefSpec{Base: "spp", Variant: core.PSASD}), 10.4},
		{"mcf/ppf-PSA", single("mcf", PrefSpec{Base: "ppf", Variant: core.PSA}), 14.8},
		{"lbm/ppf-PSA-SD", single("lbm", PrefSpec{Base: "ppf", Variant: core.PSASD}), 11.2},
		{"pr.road/pangloss-PSA-SD", single("pr.road", PrefSpec{Base: "pangloss", Variant: core.PSASD}), 10.3},
		{"milc/vamp-PSA-2MB", single("milc", PrefSpec{Base: "vamp", Variant: core.PSA2MB}), 12.1},
		{"mix(4)/spp-PSA", func() {
			if _, err := RunMulti(DefaultConfig(), PrefSpec{Base: "spp", Variant: core.PSA}, mix, opt); err != nil {
				t.Fatal(err)
			}
		}, 36},
	}
	for _, row := range rows {
		row.run() // first run: memoized generator tables, fresh storage
	}
	const rounds = 3
	for i, row := range rows {
		var total uint64
		for r := 0; r < rounds; r++ {
			for j := range rows {
				if b := allocated(rows[j].run); j == i {
					total += b
				}
			}
		}
		kb := float64(total) / rounds / 1024
		t.Logf("%s: %.1f KB per run", row.name, kb)
		if kb > row.kb*1.05 {
			t.Errorf("%s: a run after the first allocates %.1f KB, budget %.1f KB (+5%%)", row.name, kb, row.kb)
		}
	}
}

// hookWorkload is libquantum with hook called before the stream's access
// number n: it stands in for a simulation that dies or is canceled mid-run.
func hookWorkload(t *testing.T, n int, hook func()) trace.Workload {
	w := mustWorkload(t, "libquantum")
	inner := w.New
	w.New = func(seed uint64) trace.Reader {
		return &hookReader{r: inner(seed), left: n, hook: hook}
	}
	return w
}

type hookReader struct {
	r    trace.Reader
	left int
	hook func()
}

func (h *hookReader) Next(a *trace.Access) bool {
	if h.left == 0 {
		h.hook()
	}
	h.left--
	return h.r.Next(a)
}

// TestPanickedRunDropsStorage: a run that panics must not return its caches'
// half-mutated storage to the pool. After a panic the next run finds the
// pool empty and allocates the storage afresh, at least the LLC's 384 KB of
// lines and tags more than a run that follows a clean one; its result stays
// exact either way.
func TestPanickedRunDropsStorage(t *testing.T) {
	pinPool(t)
	// Two collections empty the pools of what earlier tests released, so
	// the only storage in play is what this test's runs release.
	runtime.GC()
	runtime.GC()
	cfg := DefaultConfig()
	spec := PrefSpec{Base: "spp", Variant: core.PSA}
	w := mustWorkload(t, "libquantum")
	opt := RunOpt{Warmup: 5_000, Instructions: 20_000, Seed: 1, Samples: 2}
	run := func() Result {
		r, err := Run(cfg, spec, w, opt)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	ref := run()
	var got Result
	afterClean := allocated(func() { got = run() })
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("run after a clean run differs: %s", resultDiff(got, ref))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the panicking workload did not panic")
			}
		}()
		Run(cfg, spec, hookWorkload(t, 2_000, func() { panic("stream failure") }), opt)
	}()
	afterPanic := allocated(func() { got = run() })
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("run after a panicked run differs: %s", resultDiff(got, ref))
	}
	llc := uint64(cfg.LLC.Sets * cfg.LLC.Ways * (8 + 4))
	t.Logf("after a clean run %d KB, after a panicked run %d KB", afterClean>>10, afterPanic>>10)
	if afterPanic < afterClean+llc {
		t.Errorf("a run after a panicked run allocated %d bytes, not %d above the %d after a clean run: the panicked run's storage was recycled",
			afterPanic, llc, afterClean)
	}
}

// TestCanceledRunRecyclesExactly: a run canceled mid-window releases its
// storage like a finished one, and the runs that recycle it — the same job
// and another — match their references bit for bit.
func TestCanceledRunRecyclesExactly(t *testing.T) {
	spec := PrefSpec{Base: "spp", Variant: core.PSASD}
	opt := RunOpt{Warmup: 20_000, Instructions: 80_000, Seed: 1, Samples: 8}
	lq, mcf := mustWorkload(t, "libquantum"), mustWorkload(t, "mcf")
	run := func(w trace.Workload) Result {
		r, err := Run(DefaultConfig(), spec, w, opt)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	refLQ, refMCF := run(lq), run(mcf)
	for i := 0; i < 3; i++ {
		// The stream cancels the run a third of the way into the measured
		// window, with every level's sets mutated; the run stops at the next
		// sampling boundary.
		ctx, cancel := context.WithCancel(context.Background())
		_, err := RunContext(ctx, DefaultConfig(), spec, hookWorkload(t, 6_000, cancel), opt)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled run returned %v, want context.Canceled", err)
		}
		if d := resultDiff(run(lq), refLQ); d != "" {
			t.Fatalf("libquantum after a canceled run: %s", d)
		}
		if d := resultDiff(run(mcf), refMCF); d != "" {
			t.Fatalf("mcf after a canceled run: %s", d)
		}
	}
}

// TestProbesReadReleasedSystem: the collector keeps the *system after the
// run, whose storage is released by then (the lifecycle tracer keeps only
// the events it recorded). The probes read only counters — cache Stats and
// the MSHR table, TLB hits and misses, walks, the allocator's mapped bytes
// and the core's clock — which stay with their owners, so closing another
// epoch after the run must neither panic nor change a counter, and the
// 2MB-fraction gauge must still read the run's final value.
func TestProbesReadReleasedSystem(t *testing.T) {
	ins := &Instrumentation{Collector: telemetry.NewCollector(), Tracer: telemetry.NewTracer(1 << 10)}
	opt := RunOpt{Warmup: 5_000, Instructions: 20_000, Seed: 1, Samples: 2}
	r, err := RunContext(WithInstrumentation(context.Background(), ins), DefaultConfig(),
		PrefSpec{Base: "spp", Variant: core.PSASD}, mustWorkload(t, "mcf"), opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Walks == 0 || r.Frac2MFinal == 0 || r.Frac2MFinal == 1 {
		t.Fatalf("the run must walk and map both page sizes: %d walks, 2MB fraction %v", r.Walks, r.Frac2MFinal)
	}
	ins.Collector.EndEpoch(r.Instructions, uint64(r.Cycles))
	eps := ins.Collector.Epochs()
	last := eps[len(eps)-1]
	for _, name := range []string{"l1d_demand_misses", "l2_pf_issued", "llc_demand_hits",
		"tlb_l1_hits", "tlb_l1_misses", "tlb_l2_hits", "tlb_l2_misses", "tlb_hits_4k", "tlb_hits_2m",
		"walks", "walks_4k", "walks_2m"} {
		if v, ok := last.Metrics[name]; !ok || v != 0 {
			t.Errorf("epoch closed after the run: %s = %v (present %v), want 0 (no accesses since)", name, v, ok)
		}
	}
	if v := last.Metrics["frac_2m"]; v != r.Frac2MFinal {
		t.Errorf("epoch closed after the run: frac_2m = %v, want the run's final %v", v, r.Frac2MFinal)
	}
}

// TestRecycleConcurrent runs single-core jobs and a 4-core mix on 4
// goroutines at once, with mixed geometries — the default machine, a smaller
// L2 and a 3000-set LLC (the generic set-index path) — and prefetchers of
// four table shapes (SPP, PPF, Pangloss and the 2MB-region vamp), so storage
// released by one goroutine's run is picked up by another's. Every result
// must equal the serial reference. make race runs it under the race
// detector.
func TestRecycleConcurrent(t *testing.T) {
	small := DefaultConfig()
	small.L2.Sets = 256
	odd := DefaultConfig()
	odd.LLC.Sets = 3000
	cfgs := []Config{DefaultConfig(), small, odd}
	opt := RunOpt{Warmup: 2_000, Instructions: 8_000, Seed: 1, Samples: 2}
	specs := []PrefSpec{{Base: "spp", Variant: core.PSASD}, {Base: "ppf", Variant: core.PSA},
		{Base: "pangloss", Variant: core.PSASD}, {Base: "vamp", Variant: core.PSA2MB}}
	names := []string{"libquantum", "mcf", "milc"}
	mix := []trace.Workload{mustWorkload(t, "libquantum"), mustWorkload(t, "mcf"),
		mustWorkload(t, "milc"), mustWorkload(t, "pr.road")}

	// job i runs one simulation and renders its result.
	jobs := len(cfgs)*len(specs)*len(names) + len(cfgs)
	job := func(i int) (string, error) {
		cfg := cfgs[i%len(cfgs)]
		if i >= jobs-len(cfgs) {
			r, err := RunMulti(cfg, specs[0], mix, opt)
			return fmt.Sprintf("%+v", r), err
		}
		i /= len(cfgs)
		w, err := trace.ByName(names[i%len(names)])
		if err != nil {
			return "", err
		}
		r, err := Run(cfg, specs[i/len(names)], w, opt)
		return fmt.Sprintf("%+v", r), err
	}
	want := make([]string, jobs)
	for i := range want {
		var err error
		if want[i], err = job(i); err != nil {
			t.Fatal(err)
		}
	}
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each worker starts at a different job, so different
			// geometries are in flight at once.
			for k := 0; k < jobs; k++ {
				i := (k + g*jobs/workers) % jobs
				got, err := job(i)
				if err == nil && got != want[i] {
					err = fmt.Errorf("job %d on worker %d: %s, serial reference %s", i, g, got, want[i])
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPoolTableBounded runs 100 distinct LLC geometries and 30 distinct
// physical memory sizes through Run: the cache slab table and the frame
// bitmap table must each stop at slabpool.MaxKeys, and the runs past it must
// still succeed, allocating their storage as before. The tables are
// process-wide and never shrink, so the test runs in a child process to
// leave the other tests' shapes pooled.
func TestPoolTableBounded(t *testing.T) {
	if os.Getenv("SIM_POOL_TABLE_CHILD") != "1" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestPoolTableBounded$", "-test.v")
		cmd.Env = append(os.Environ(), "SIM_POOL_TABLE_CHILD=1")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("child process: %v\n%s", err, out)
		}
		t.Logf("child process:\n%s", out)
		return
	}
	w := mustWorkload(t, "libquantum")
	opt := RunOpt{Instructions: 1_000, Seed: 1, Samples: 1}
	for _, table := range []struct {
		name  string
		runs  int
		vary  func(cfg *Config, i int)
		count func() int
	}{
		{"cache slab", 100, func(cfg *Config, i int) { cfg.LLC.Sets = 1000 + i }, cache.PooledGeometries},
		{"frame bitmap", 30, func(cfg *Config, i int) { cfg.PhysBytes = 1<<30 + mem.Addr(i)<<26 }, vm.PooledBitmaps},
	} {
		for i := 0; i < table.runs; i++ {
			cfg := DefaultConfig()
			table.vary(&cfg, i)
			if _, err := Run(cfg, PrefSpec{Base: "none"}, w, opt); err != nil {
				t.Fatalf("%s shape %d: %v", table.name, i, err)
			}
			if n := table.count(); n > slabpool.MaxKeys {
				t.Fatalf("after %d %s shapes the table holds %d, cap %d", i+1, table.name, n, slabpool.MaxKeys)
			}
		}
		if n := table.count(); n != slabpool.MaxKeys {
			t.Errorf("after %d %s shapes the table holds %d, want the cap %d", table.runs, table.name, n, slabpool.MaxKeys)
		}
	}
}
