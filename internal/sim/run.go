package sim

import (
	"context"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/trace"
)

// RunOpt controls a run's length.
type RunOpt struct {
	Warmup       uint64 // instructions to warm structures (stats then reset)
	Instructions uint64 // measured instructions
	Seed         uint64
	Samples      int // Frac2M samples taken across the measured window (Fig. 3)
}

// DefaultRunOpt returns a laptop-scale default: 250K warmup, 1M measured.
// The paper uses 250M+250M on ChampSim; the shape-level results reproduce at
// this scale because the footprints dwarf the caches either way.
func DefaultRunOpt() RunOpt {
	return RunOpt{Warmup: 250_000, Instructions: 1_000_000, Seed: 1, Samples: 16}
}

// Result carries everything the experiments derive their figures from.
type Result struct {
	Workload string
	Spec     string

	Instructions uint64
	Cycles       mem.Cycle
	IPC          float64

	L1D, L2, LLC cache.Stats
	Engine       core.Stats
	DRAM         dram.Stats

	TLBL1Hits, TLBL1Misses uint64
	TLBL2Hits, TLBL2Misses uint64
	Walks                  uint64

	// Frac2MOverTime samples the fraction of mapped memory backed by 2MB
	// pages across the run (Figure 3); Frac2MFinal is the last sample.
	Frac2MOverTime []float64
	Frac2MFinal    float64
}

// Run simulates one workload on a single-core machine with the given
// prefetching spec. A cfg that fails Validate is rejected with its
// *ConfigError values before anything is built.
func Run(cfg Config, spec PrefSpec, w trace.Workload, opt RunOpt) (Result, error) {
	return RunContext(context.Background(), cfg, spec, w, opt)
}

// RunContext is Run with cancellation: the context is checked at every
// sampling boundary (opt.Instructions/opt.Samples retired instructions), so a
// canceled run stops within one chunk and returns ctx.Err(). Results of
// canceled runs are partial and must not be cached.
//
// Once the Result is copied out, finished and canceled runs alike release
// their storage — caches, VM, core and prefetcher tables — for the next
// simulation (system.release); a run that panics skips the release, so its
// possibly half-mutated storage is dropped rather than recycled.
//
// The context may also carry an *Instrumentation (WithInstrumentation): the
// run then additionally stops at every telemetry epoch boundary to sample the
// collector's probes. Execution is chunk-invariant (the CPU model carries
// in-flight state across Run calls), so instrumented and plain runs produce
// identical results.
func RunContext(ctx context.Context, cfg Config, spec PrefSpec, w trace.Workload, opt RunOpt) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	sys, err := newSystem(cfg, spec, []trace.Workload{w}, opt.Seed)
	if err != nil {
		return Result{}, err
	}
	res, err := runSingle(ctx, sys, spec, w, opt)
	sys.release()
	return res, err
}

// runSingle drives an assembled single-core system through the warm-up and
// measured windows and copies its Result out.
func runSingle(ctx context.Context, sys *system, spec PrefSpec, w trace.Workload, opt RunOpt) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	n := sys.nodes[0]

	if opt.Warmup > 0 {
		n.cpu.Run(n.reader, opt.Warmup)
	}
	resetStats(sys)
	ins := InstrumentationFrom(ctx)
	ins.attach(sys)
	instrStart, cycleStart := n.cpu.Instructions, n.cpu.Cycle

	samples := opt.Samples
	if samples <= 0 {
		samples = 1
	}
	res := Result{Workload: w.Name, Spec: spec.String()}
	if opt.Instructions > 0 {
		// Preallocated only when the loop will sample: a zero-length run must
		// keep the nil slice (JSON null) it always produced.
		res.Frac2MOverTime = make([]float64, 0, samples+1)
	}
	chunk := opt.Instructions / uint64(samples)
	if chunk == 0 {
		chunk = opt.Instructions
	}
	epoch := ins.epochLen()

	// The loop advances to the nearest of the next Frac2M sample point and the
	// next telemetry epoch boundary. Frac2M samples land exactly where the
	// uninstrumented loop put them (every `chunk` retired instructions and at
	// the drain point), so the series is invariant under instrumentation.
	var run, lastEpochClose uint64
	nextSample := minU64(chunk, opt.Instructions)
	nextEpoch := uint64(0)
	if epoch > 0 {
		nextEpoch = minU64(epoch, opt.Instructions)
	}
	for run < opt.Instructions {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		target := nextSample
		if epoch > 0 && nextEpoch < target {
			target = nextEpoch
		}
		got := n.cpu.Run(n.reader, target-run)
		run += got
		drained := run < target
		if run == nextSample || drained {
			res.Frac2MOverTime = append(res.Frac2MOverTime, sys.alloc.Frac2M())
			nextSample = minU64(nextSample+chunk, opt.Instructions)
		}
		if epoch > 0 && (run == nextEpoch || (drained && run > lastEpochClose)) {
			ins.Collector.EndEpoch(n.cpu.Instructions-instrStart, uint64(n.cpu.Cycle-cycleStart))
			lastEpochClose = run
			nextEpoch = minU64(nextEpoch+epoch, opt.Instructions)
		}
		if drained {
			break // trace drained
		}
	}

	res.Instructions = n.cpu.Instructions - instrStart
	res.Cycles = n.cpu.Cycle - cycleStart
	if res.Cycles > 0 {
		res.IPC = float64(res.Instructions) / float64(res.Cycles)
	}
	res.L1D = n.l1d.Stats
	res.L2 = n.l2.Stats
	res.LLC = sys.llc.Stats
	if n.engine != nil {
		res.Engine = n.engine.Stats
	}
	res.DRAM = sys.dramDev.Stats
	res.TLBL1Hits, res.TLBL1Misses = n.mmu.L1().Hits, n.mmu.L1().Misses
	res.TLBL2Hits, res.TLBL2Misses = n.mmu.L2().Hits, n.mmu.L2().Misses
	res.Walks = n.mmu.Walks
	if len(res.Frac2MOverTime) > 0 {
		res.Frac2MFinal = res.Frac2MOverTime[len(res.Frac2MOverTime)-1]
	}
	return res, nil
}

// resetStats zeroes the measurable counters after warmup, keeping all
// microarchitectural state warm.
func resetStats(sys *system) {
	sys.llc.Stats = cache.Stats{}
	sys.dramDev.Stats = dram.Stats{}
	for _, n := range sys.nodes {
		n.l1d.Stats = cache.Stats{}
		n.l2.Stats = cache.Stats{}
		if n.engine != nil {
			n.engine.Stats = core.Stats{}
		}
		n.mmu.L1().Hits, n.mmu.L1().Misses = 0, 0
		n.mmu.L2().Hits, n.mmu.L2().Misses = 0, 0
		n.mmu.L1().HitsBy = [mem.NumPageSizes]uint64{}
		n.mmu.L2().HitsBy = [mem.NumPageSizes]uint64{}
		n.mmu.Walks, n.mmu.WalkRefs = 0, 0
		n.mmu.WalksBy = [mem.NumPageSizes]uint64{}
	}
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// MultiResult is the outcome of a multi-core mix run.
type MultiResult struct {
	Workloads []string
	// IPC per core over the measured window.
	IPC []float64
	// DRAM aggregates the shared memory system's traffic over the window.
	DRAM dram.Stats
}

// RunMulti simulates a mix of workloads, one per core, over a shared LLC and
// DRAM, following the standard multi-core methodology: all cores advance in
// shared-time epochs; a core that reaches its warm-up or measurement
// instruction count KEEPS RUNNING so the contention others see never drops;
// each core's IPC is measured over its own first `Instructions` retired after
// the shared warm-up boundary.
func RunMulti(cfg Config, spec PrefSpec, mix []trace.Workload, opt RunOpt) (MultiResult, error) {
	return RunMultiContext(context.Background(), cfg, spec, mix, opt)
}

// RunMultiContext is RunMulti with cancellation, checked at every shared-time
// epoch boundary (a few thousand cycles), so canceled mixes stop promptly.
// Like RunContext, it releases the system's storage once the result is out.
// Physical memory scales to at least 4 GiB per core before Validate runs.
func RunMultiContext(ctx context.Context, cfg Config, spec PrefSpec, mix []trace.Workload, opt RunOpt) (MultiResult, error) {
	cfg.PhysBytes = maxAddr(cfg.PhysBytes, mem.Addr(len(mix))*(8<<30)/2)
	if err := cfg.Validate(); err != nil {
		return MultiResult{}, err
	}
	sys, err := newSystem(cfg, spec, mix, opt.Seed)
	if err != nil {
		return MultiResult{}, err
	}
	res, err := runMulti(ctx, sys, mix, opt)
	sys.release()
	return res, err
}

// runMulti drives an assembled mix system through the shared warm-up and the
// per-core measured windows and copies its MultiResult out.
func runMulti(ctx context.Context, sys *system, mix []trace.Workload, opt RunOpt) (MultiResult, error) {
	const epochCycles = 2000
	n := len(sys.nodes)
	drained := make([]bool, n)

	// runEpochs advances every core (drained ones excepted) in lock-step
	// epochs until stop() is true, checked at epoch boundaries.
	runEpochs := func(stop func() bool, onEpoch func()) {
		for ctx.Err() == nil && !stop() {
			var minCycle mem.Cycle = 1 << 62
			active := false
			for i, node := range sys.nodes {
				if drained[i] {
					continue
				}
				active = true
				if node.cpu.Cycle < minCycle {
					minCycle = node.cpu.Cycle
				}
			}
			if !active {
				return
			}
			epochEnd := minCycle + epochCycles
			for i, node := range sys.nodes {
				if drained[i] || node.cpu.Cycle >= epochEnd {
					continue
				}
				before := node.cpu.Instructions
				node.cpu.RunUntil(node.reader, 1<<60, epochEnd)
				if node.cpu.Instructions == before && node.cpu.Cycle < epochEnd {
					drained[i] = true
				}
			}
			if onEpoch != nil {
				onEpoch()
			}
		}
	}

	// Warm-up: until every core has retired opt.Warmup instructions.
	if opt.Warmup > 0 {
		runEpochs(func() bool {
			for i, node := range sys.nodes {
				if !drained[i] && node.cpu.Instructions < opt.Warmup {
					return false
				}
			}
			return true
		}, nil)
	}
	resetStats(sys)

	starts := make([]uint64, n)
	cycleStart := make([]mem.Cycle, n)
	doneCycle := make([]mem.Cycle, n)
	measured := make([]bool, n)
	for i, node := range sys.nodes {
		starts[i] = node.cpu.Instructions
		cycleStart[i] = node.cpu.Cycle
	}
	record := func() {
		for i, node := range sys.nodes {
			if !measured[i] && (drained[i] || node.cpu.Instructions >= starts[i]+opt.Instructions) {
				measured[i] = true
				doneCycle[i] = node.cpu.Cycle
			}
		}
	}
	runEpochs(func() bool {
		record()
		for i := range sys.nodes {
			if !measured[i] {
				return false
			}
		}
		return true
	}, record)
	record()
	if err := ctx.Err(); err != nil {
		return MultiResult{}, err
	}

	res := MultiResult{DRAM: sys.dramDev.Stats}
	for i, node := range sys.nodes {
		res.Workloads = append(res.Workloads, mix[i].Name)
		instr := node.cpu.Instructions - starts[i]
		if instr > opt.Instructions {
			instr = opt.Instructions
		}
		cyc := doneCycle[i] - cycleStart[i]
		ipc := 0.0
		if cyc > 0 {
			ipc = float64(instr) / float64(cyc)
		}
		res.IPC = append(res.IPC, ipc)
	}
	return res, nil
}

func maxAddr(a, b mem.Addr) mem.Addr {
	if a > b {
		return a
	}
	return b
}
