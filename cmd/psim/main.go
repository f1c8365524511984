// Command psim runs a single simulation: one workload, one prefetching
// configuration, and prints the full metric set.
//
// Usage:
//
//	psim -workload milc -pref spp -variant psa-sd
//	psim -workload libquantum -pref none -l1 ipcp++
//	psim -workloads                      # list the catalogue
//	psim -print-config                   # show Table I
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/simcache"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vm"
)

// writeArtifact writes one telemetry export to path, reporting failures
// without aborting the (already printed) result.
func writeArtifact(path, what string, write func(io.Writer) error) bool {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, what+":", err)
		return false
	}
	defer f.Close()
	if err := write(f); err != nil {
		fmt.Fprintln(os.Stderr, what+":", err)
		return false
	}
	return true
}

// replayWorkload wraps a recorded PSAT trace file as a workload. The OS-side
// page-size policy is applied at simulation time, so the same trace can be
// replayed under any THP fraction. The workload's ContentID is a digest of
// the file's bytes, so result-cache entries follow the trace's contents —
// re-recording a file under the same path is a different workload, never a
// stale hit.
func replayWorkload(path string, thpFrac float64) (trace.Workload, error) {
	digest, err := trace.FileDigest(path)
	if err != nil {
		return trace.Workload{}, err
	}
	return trace.Workload{
		Name:      path,
		Suite:     "TRACE",
		Intensive: true,
		THP:       vm.FractionTHP{Frac: thpFrac, Seed: 1},
		ContentID: digest,
		New: func(uint64) trace.Reader {
			f, err := os.Open(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			return trace.NewFileReader(f)
		},
	}, nil
}

// writeHeapProfile snapshots live-heap allocations into path (-memprofile).
func writeHeapProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "memprofile:", err)
		return
	}
	defer f.Close()
	runtime.GC() // materialize the final live set
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "memprofile:", err)
	}
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload    = flag.String("workload", "", "workload name (see -workloads)")
		traceFile   = flag.String("trace", "", "replay a recorded PSAT trace instead of a generator")
		thpFrac     = flag.Float64("thp", 0.85, "THP 2MB fraction when replaying a trace")
		pref        = flag.String("pref", "spp", "L2 prefetcher: none, spp, vldp, ppf, bop, sms, ampm, temporal, pangloss, vamp")
		variant     = flag.String("variant", "psa-sd", "variant: original, psa, psa-2mb, psa-sd, psa-magic, psa-magic-2mb, sd-standard, sd-page-size, iso")
		l1          = flag.String("l1", "", "L1D prefetcher: nextline, ipcp, ipcp++ (empty: none)")
		warmup      = flag.Uint64("warmup", 250_000, "warm-up instructions")
		instr       = flag.Uint64("instr", 1_000_000, "measured instructions")
		seed        = flag.Uint64("seed", 1, "simulation seed")
		listWs      = flag.Bool("workloads", false, "list workloads and exit")
		printConfig = flag.Bool("print-config", false, "print the Table I configuration and exit")
		noCache     = flag.Bool("no-cache", false, "disable the simulation result cache")
		cacheDir    = flag.String("cache-dir", simcache.DefaultDir(), "simulation result cache directory")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile to this file on exit")

		telemetryOut = flag.String("telemetry-out", "", "write the per-epoch telemetry series as JSONL to this file")
		telemetryCSV = flag.String("telemetry-csv", "", "write the per-epoch telemetry series as CSV to this file")
		eventsOut    = flag.String("events-out", "", "write prefetch lifecycle events as JSONL to this file")
		eventsChrome = flag.String("events-chrome", "", "write prefetch lifecycle events as a Chrome trace_event JSON file")
		epochLen     = flag.Uint64("epoch", sim.DefaultEpochInstructions, "telemetry epoch length in retired instructions")
		traceCap     = flag.Int("events-cap", telemetry.DefaultTraceCap, "lifecycle event ring capacity (newest events win)")
	)
	flag.Parse()

	cfg := sim.DefaultConfig()
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "psim:", err)
		return 2
	}
	if *printConfig {
		fmt.Println(cfg.String())
		return 0
	}
	if *listWs {
		for _, w := range trace.All() {
			tag := ""
			if !w.Intensive {
				tag = " (non-intensive)"
			}
			fmt.Printf("%-18s %-7s %s%s\n", w.Name, w.Suite, w.Description, tag)
		}
		return 0
	}
	if *workload == "" && *traceFile == "" {
		flag.Usage()
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer writeHeapProfile(*memProfile)
	}

	// Ctrl-C cancels at the next simulation-chunk boundary; an interrupted
	// run writes nothing to the cache.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	var w trace.Workload
	var err error
	if *traceFile != "" {
		w, err = replayWorkload(*traceFile, *thpFrac)
	} else {
		w, err = trace.ByName(*workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	v, err := core.ParseVariant(*variant)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	spec := sim.PrefSpec{Base: *pref, Variant: v, L1: sim.L1Pref(*l1)}
	opt := sim.RunOpt{Warmup: *warmup, Instructions: *instr, Seed: *seed, Samples: 8}

	// Telemetry needs a live simulation: a cache-hit replay has no epochs or
	// lifecycle events to report, so any telemetry flag bypasses the result
	// cache. Instrumentation is observational — the computed Result (and
	// anything already cached for this key) is unaffected.
	var ins *sim.Instrumentation
	if *telemetryOut != "" || *telemetryCSV != "" || *eventsOut != "" || *eventsChrome != "" {
		ins = &sim.Instrumentation{EpochInstructions: *epochLen}
		if *telemetryOut != "" || *telemetryCSV != "" {
			ins.Collector = telemetry.NewCollector()
		}
		if *eventsOut != "" || *eventsChrome != "" {
			ins.Tracer = telemetry.NewTracer(*traceCap)
		}
		ctx = sim.WithInstrumentation(ctx, ins)
		if !*noCache {
			*noCache = true
			fmt.Fprintln(os.Stderr, "(telemetry requested: result cache bypassed for this run)")
		}
	}

	runSim := func(ctx context.Context) (sim.Result, error) { return sim.RunContext(ctx, cfg, spec, w, opt) }
	var res sim.Result
	// Trace replays cache like any workload: their key carries a digest of
	// the file's contents (Workload.ContentID), so edits or re-recordings
	// under the same path can never return a stale entry.
	if !*noCache {
		store, serr := simcache.New(*cacheDir)
		if serr != nil {
			fmt.Fprintln(os.Stderr, "warning: result cache disabled:", serr)
			res, err = runSim(ctx)
		} else {
			var hit bool
			res, hit, err = store.DoContext(ctx, simcache.Key(cfg, spec, w, opt), runSim)
			if hit {
				fmt.Fprintln(os.Stderr, "(result served from cache; -no-cache to re-simulate)")
			}
		}
	} else {
		res, err = runSim(ctx)
	}
	if err != nil {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "interrupted")
			return 130
		}
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	fmt.Printf("workload:      %s (%s)\n", res.Workload, w.Suite)
	fmt.Printf("prefetcher:    %s\n", res.Spec)
	fmt.Printf("instructions:  %d over %d cycles\n", res.Instructions, res.Cycles)
	fmt.Printf("IPC:           %.4f\n", res.IPC)
	fmt.Printf("2MB fraction:  %.1f%%\n", res.Frac2MFinal*100)
	fmt.Printf("L1D: hits %d misses %d mpki %.1f avg-lat %.1f\n",
		res.L1D.DemandHits, res.L1D.DemandMisses, res.L1D.MPKI(res.Instructions), res.L1D.AvgDemandLatency())
	fmt.Printf("L2C: hits %d misses %d mpki %.1f avg-lat %.1f pf-issued %d useful %d late %d acc %.2f cov %.2f\n",
		res.L2.DemandHits, res.L2.DemandMisses, res.L2.MPKI(res.Instructions), res.L2.AvgDemandLatency(),
		res.L2.PrefetchIssued, res.L2.PrefetchUseful, res.L2.PrefetchLate, res.L2.Accuracy(), res.L2.Coverage())
	fmt.Printf("LLC: hits %d misses %d mpki %.1f avg-lat %.1f pf-issued %d useful %d acc %.2f cov %.2f\n",
		res.LLC.DemandHits, res.LLC.DemandMisses, res.LLC.MPKI(res.Instructions), res.LLC.AvgDemandLatency(),
		res.LLC.PrefetchIssued, res.LLC.PrefetchUseful, res.LLC.Accuracy(), res.LLC.Coverage())
	fmt.Printf("engine: proposed %d issued %d discarded %d (safe-crossing %d, P=%.3f)\n",
		res.Engine.Proposed, res.Engine.Issued, res.Engine.DiscardedBoundary,
		res.Engine.DiscardedSafe, res.Engine.DiscardProbability())
	fmt.Printf("TLB: L1 %d/%d L2 %d/%d walks %d\n",
		res.TLBL1Hits, res.TLBL1Misses, res.TLBL2Hits, res.TLBL2Misses, res.Walks)
	fmt.Printf("DRAM: reads %d writes %d row-hit %.2f\n",
		res.DRAM.Reads, res.DRAM.Writes, res.DRAM.RowHitRate())

	if ins != nil {
		ok := true
		if *telemetryOut != "" {
			ok = writeArtifact(*telemetryOut, "telemetry-out", ins.Collector.WriteJSONL) && ok
		}
		if *telemetryCSV != "" {
			ok = writeArtifact(*telemetryCSV, "telemetry-csv", ins.Collector.WriteCSV) && ok
		}
		if *eventsOut != "" {
			ok = writeArtifact(*eventsOut, "events-out", ins.Tracer.WriteJSONL) && ok
		}
		if *eventsChrome != "" {
			ok = writeArtifact(*eventsChrome, "events-chrome", ins.Tracer.WriteChromeTrace) && ok
		}
		if ins.Collector != nil {
			fmt.Printf("telemetry: %d epochs of %d instructions\n", len(ins.Collector.Epochs()), *epochLen)
		}
		if ins.Tracer != nil {
			fmt.Printf("telemetry: %d lifecycle events recorded (%d retained, %d overwritten)\n",
				ins.Tracer.Total(), len(ins.Tracer.Events()), ins.Tracer.Dropped())
		}
		if !ok {
			return 1
		}
	}
	return 0
}
