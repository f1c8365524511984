// Command pexp regenerates the paper's tables and figures.
//
// Usage:
//
//	pexp -fig 8                      # regenerate Figure 8 at default scale
//	pexp -fig 9 -instr 2000000       # longer measured window
//	pexp -fig 14 -mixes 100          # the paper's full 100 mixes
//	pexp -fig all                    # everything (slow)
//	pexp -list                       # show available experiments
//
// Simulation results are memoized in a content-addressed disk cache (keyed
// by machine config, prefetcher spec, workload, and run options), so
// re-running a figure — or resuming an interrupted `-fig all` — only
// simulates what is missing. Disable with -no-cache, relocate with
// -cache-dir, invalidate by deleting the directory.
//
// With -server URL the batches are dispatched to a psimd daemon instead of
// simulating locally: the daemon owns the cache and de-duplicates identical
// requests across all its clients, so concurrent pexp runs of the same
// figure cost one set of simulations. A comma-separated list of URLs
// rotates batches across several daemons and moves a batch to the next one
// when its endpoint is down or saturated; an empty list is a usage error.
//
// Ctrl-C (or SIGTERM) cancels cleanly: workers stop at the next simulation
// boundary and no partial cache entries are left behind.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro/internal/dtrace"
	"repro/internal/experiments"
	"repro/internal/service"
	"repro/internal/simcache"
)

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

// writeStitchedTrace merges the client's own spans with every endpoint's
// flight-recorder dump, keeps the traces this run started, and writes the
// result as Chrome trace_event JSON (load it in Perfetto or chrome://tracing:
// one process track per node, one thread lane per trace).
func writeStitchedTrace(c *service.Client, flight *dtrace.Recorder, path string) error {
	local := flight.Snapshot(dtrace.Filter{})
	sets := [][]dtrace.SpanData{local}
	// A fresh context: the run's context is typically done (or canceled) by
	// the time the trace is collected.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, ep := range c.Endpoints() {
		spans, err := service.NewClient(ep).Flight(ctx, "")
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace-out: %s: %v (skipping)\n", ep, err)
			continue
		}
		sets = append(sets, spans)
	}
	// The daemons' rings also hold other clients' spans; keep the traces the
	// local recorder knows about.
	ours := map[string]bool{}
	for _, d := range local {
		ours[d.TraceID] = true
	}
	var spans []dtrace.SpanData
	for _, d := range dtrace.Stitch(sets...) {
		if ours[d.TraceID] {
			spans = append(spans, d)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := dtrace.WriteChromeTrace(f, spans); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trace: %d spans, %d trace(s), %d endpoint(s) -> %s\n",
		len(spans), len(dtrace.TraceIDs(spans)), len(c.Endpoints()), path)
	return nil
}

func main() { os.Exit(run()) }

func run() int {
	var (
		fig        = flag.String("fig", "", "experiment to run (fig2..fig15, nonintensive, table1, all)")
		list       = flag.Bool("list", false, "list available experiments")
		warmup     = flag.Uint64("warmup", 200_000, "warm-up instructions per run")
		instr      = flag.Uint64("instr", 1_000_000, "measured instructions per run")
		seed       = flag.Uint64("seed", 1, "simulation seed")
		par        = flag.Int("par", runtime.NumCPU(), "parallel simulations")
		mixes      = flag.Int("mixes", 20, "multi-core mixes for fig14/fig15")
		wl         = flag.String("workloads", "", "comma-separated workload subset (default: all intensive)")
		check      = flag.Bool("check", false, "verify the paper-shape invariants and exit nonzero on violation")
		base       = flag.String("base", "", "prefetcher for per-prefetcher studies (fig8): spp, vldp, ppf, bop, sms, ampm, temporal, pangloss, vamp")
		htmlOut    = flag.String("html", "", "also write an HTML report (with SVG charts) to this file")
		noCache    = flag.Bool("no-cache", false, "disable the simulation result cache")
		cacheDir   = flag.String("cache-dir", simcache.DefaultDir(), "simulation result cache directory")
		quiet      = flag.Bool("quiet", false, "suppress live progress reporting")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		server     = flag.String("server", "", "dispatch simulations to psimd daemon(s): one base URL or a comma-separated list (e.g. http://a:8080,http://b:8080); batches rotate across the list and fail over to the next endpoint when one is down or answers 429")

		telemetryDir = flag.String("telemetry-dir", "", "write per-job telemetry series under this directory (e.g. results/telemetry); cache-hit and remote jobs emit none")
		epochLen     = flag.Uint64("epoch", 0, "telemetry epoch length in instructions (default: the simulator's standard epoch)")
		traceOut     = flag.String("trace-out", "", "write a stitched distributed trace (Chrome trace_event JSON, Perfetto-loadable) of every batch to this file; requires -server")
	)
	flag.Parse()

	if *list {
		fmt.Println("available experiments:", strings.Join(experiments.Names, ", "))
		return 0
	}
	if *fig == "" {
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
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "pprof:", err)
			}
		}()
	}

	// Ctrl-C propagates as a context: workers stop at the next simulation
	// boundary, and errored runs are never written to the cache.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	o := experiments.DefaultOptions()
	if err := o.Config.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "pexp:", err)
		return 2
	}
	o.Warmup = *warmup
	o.Instructions = *instr
	o.Seed = *seed
	o.Parallelism = *par
	o.Mixes = *mixes
	o.Base = *base
	o.Context = ctx
	o.TelemetryDir = *telemetryDir
	o.EpochInstructions = *epochLen
	if !*quiet {
		o.Progress = os.Stderr
	}
	if *traceOut != "" && *server == "" {
		fmt.Fprintln(os.Stderr, "pexp: -trace-out requires -server (the trace follows batches across daemons)")
		return 2
	}
	var flight *dtrace.Recorder
	var client *service.Client
	switch {
	case *server != "":
		// The daemon owns caching and cross-client dedup; no local store.
		// Several endpoints form a failover rotation over one cluster.
		client = service.NewClient(strings.Split(*server, ",")...)
		if len(client.Endpoints()) == 0 {
			fmt.Fprintln(os.Stderr, "pexp: -server lists no endpoints")
			return 2
		}
		o.Remote = client
		if *traceOut != "" {
			// The client records its own batch/submit spans; every server
			// span of the same traces is fetched and stitched in afterwards.
			flight = dtrace.NewRecorder("pexp", 0)
			o.Context = dtrace.NewContext(o.Context, flight, dtrace.SpanContext{})
		}
	case !*noCache:
		store, err := simcache.New(*cacheDir)
		if err != nil {
			// A cache that cannot be opened degrades to uncached runs.
			fmt.Fprintln(os.Stderr, "warning: result cache disabled:", err)
		} else {
			o.Cache = store
		}
	}
	if *wl != "" {
		ws, err := experiments.WorkloadsByName(strings.Split(*wl, ","))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		o.Workloads = ws
	}

	names := []string{*fig}
	if *fig == "all" {
		names = experiments.Names
	}
	var collected []struct {
		Name   string
		Result experiments.Renderer
	}
	for _, name := range names {
		start := time.Now()
		r, err := experiments.Run(name, o)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintln(os.Stderr, "\ninterrupted; partial results are cached and a rerun resumes from them")
				return 130
			}
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Print(r.Render())
		if *check {
			if errs := experiments.CheckAll(r); len(errs) > 0 {
				for _, e := range errs {
					fmt.Fprintln(os.Stderr, "SHAPE VIOLATION:", e)
				}
				return 1
			}
			fmt.Println("shape checks: PASS")
		}
		fmt.Printf("[%s took %.1fs]\n\n", name, time.Since(start).Seconds())
		collected = append(collected, struct {
			Name   string
			Result experiments.Renderer
		}{name, r})
	}
	if o.Cache != nil {
		s := o.Cache.Stats()
		fmt.Fprintf(os.Stderr, "cache %s: %d hits, %d shared, %d simulated (%.0f%% hit rate)\n",
			o.Cache.Dir(), s.Hits, s.Shared, s.Misses, s.HitRate()*100)
	}
	if flight != nil {
		if err := writeStitchedTrace(client, flight, *traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "trace-out:", err)
			return 1
		}
	}
	if *htmlOut != "" {
		f, err := os.Create(*htmlOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		if err := experiments.WriteHTMLReport(f, "Page Size Aware Cache Prefetching — reproduction report", collected); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Println("HTML report written to", *htmlOut)
	}
	return 0
}
