// Command psimd is the simulation service daemon: it accepts batches of
// simulations over HTTP/JSON, runs them on a bounded worker pool backed by
// the shared content-addressed result cache, and streams per-job progress
// and results over SSE. Two clients asking for the same simulation cost one
// run (cross-request single-flight plus the disk cache).
//
// Usage:
//
//	psimd                                  # listen on localhost:8080
//	psimd -addr :9090 -par 16 -queue 128   # bigger box
//	pexp -fig 8 -server http://localhost:8080
//
// Cluster mode gangs several daemons into one logical service: each
// simulation key has a single owning node on a consistent-hash ring, and a
// non-owner proxies every simulation it has not stored to the owner, which
// answers from its store or computes (the non-owner computes locally if the
// owner is down):
//
//	psimd -addr :8080 -cluster -node-id a -peers b=http://h2:8080,c=http://h3:8080
//	pexp -fig 8 -server http://h1:8080,http://h2:8080,http://h3:8080
//
// Endpoints: POST /v1/sims, GET /v1/jobs/{id}, GET /v1/jobs/{id}/events
// (SSE), DELETE /v1/jobs/{id}, GET /healthz, GET /metrics (Prometheus text),
// GET /debug/flight (the span flight recorder, see -flight-cap); cluster mode
// adds the peer protocol under /v1/cluster/*. -debug-addr
// serves net/http/pprof on a separate (private) listener.
//
// SIGINT/SIGTERM drains gracefully: admission stops, accepted jobs finish
// (bounded by -drain), then the HTTP server shuts down.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"net/url"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/dtrace"
	"repro/internal/service"
	"repro/internal/simcache"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		addr     = flag.String("addr", "localhost:8080", "listen address")
		cacheDir = flag.String("cache-dir", simcache.DefaultDir(), "simulation result cache directory")
		noCache  = flag.Bool("no-cache", false, "disable the result cache (every sim executes)")
		workers  = flag.Int("workers", 4, "jobs making progress concurrently")
		par      = flag.Int("par", runtime.NumCPU(), "concurrent simulations across all jobs")
		queue    = flag.Int("queue", 64, "admission queue depth (full queue returns 429)")
		maxBatch = flag.Int("max-batch", 4096, "maximum simulations per request")
		timeout  = flag.Duration("timeout", 0, "default per-job deadline (0: none)")
		drain    = flag.Duration("drain", 60*time.Second, "graceful-drain bound on SIGTERM before in-flight jobs are canceled")

		clustered = flag.Bool("cluster", false, "join a psimd cluster (requires the result cache)")
		peers     = flag.String("peers", "", "comma-separated seed peers: id=http://host:port or bare URLs")
		nodeID    = flag.String("node-id", "", "stable cluster identity (default: advertise URL's host:port)")
		advertise = flag.String("advertise", "", "URL peers dial to reach this node (default: http://<addr>)")

		flightCap = flag.Int("flight-cap", dtrace.DefaultCap, "span flight-recorder capacity (newest spans retained, served at /debug/flight; 0 disables tracing)")
		debugAddr = flag.String("debug-addr", "", "separate listener for net/http/pprof (e.g. localhost:6061); empty disables profiling")
	)
	flag.Parse()

	cfg := service.Config{
		Workers:        *workers,
		SimParallelism: *par,
		QueueDepth:     *queue,
		MaxBatch:       *maxBatch,
		DefaultTimeout: *timeout,
	}
	if !*noCache {
		store, err := simcache.New(*cacheDir)
		if err != nil {
			log.Printf("warning: result cache disabled: %v", err)
		} else {
			cfg.Store = store
		}
	}

	if *clustered {
		if cfg.Store == nil {
			log.Printf("psimd: -cluster requires the result cache (the ring routes over its keys); remove -no-cache or fix -cache-dir")
			return 1
		}
		seeds, err := cluster.ParsePeers(*peers)
		if err != nil {
			log.Printf("psimd: %v", err)
			return 1
		}
		adv := strings.TrimRight(*advertise, "/")
		if adv == "" {
			host := *addr
			if strings.HasPrefix(host, ":") {
				host = "localhost" + host
			}
			adv = "http://" + host
		}
		id := *nodeID
		if id == "" {
			if u, perr := url.Parse(adv); perr == nil && u.Host != "" {
				id = u.Host
			} else {
				id = adv
			}
		}
		cfg.Cluster = &cluster.Options{
			Self:  cluster.NodeInfo{ID: id, URL: adv},
			Seeds: seeds,
		}
	}

	if *flightCap > 0 {
		// The recorder's node identity is what stitched multi-node traces
		// group tracks by: the cluster ID when clustered, else the listen
		// address.
		node := *addr
		if cfg.Cluster != nil {
			node = cfg.Cluster.Self.ID
		}
		cfg.Flight = dtrace.NewRecorder(node, *flightCap)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := service.New(cfg)
	srv.Start()
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() {
		err := httpSrv.ListenAndServe()
		if !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	cacheNote := "disabled"
	if cfg.Store != nil {
		cacheNote = cfg.Store.Dir()
	}
	log.Printf("psimd listening on %s (workers=%d par=%d queue=%d cache=%s)",
		*addr, *workers, *par, *queue, cacheNote)
	if c := srv.Cluster(); c != nil {
		log.Printf("%s: %d seed peer(s)", c, len(cfg.Cluster.Seeds))
	}
	if *debugAddr != "" {
		// Profiling lives on its own listener so the public API port never
		// exposes pprof; bind it to localhost (or a firewalled interface).
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.ListenAndServe(*debugAddr, dmux); err != nil {
				log.Printf("psimd: debug listener: %v", err)
			}
		}()
		log.Printf("pprof on http://%s/debug/pprof/", *debugAddr)
	}

	select {
	case err := <-errc:
		log.Printf("psimd: %v", err)
		return 1
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately instead of draining
	log.Printf("draining (up to %s)...", *drain)
	if err := srv.Drain(*drain); err != nil {
		log.Printf("psimd: %v", err)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("psimd: shutdown: %v", err)
	}
	if st := srv.Stats(); st.Hits+st.Shared+st.Misses > 0 {
		fmt.Fprintf(os.Stderr, "cache: %d hits, %d shared, %d simulated (%.0f%% hit rate)\n",
			st.Hits, st.Shared, st.Misses, st.HitRate()*100)
	}
	log.Printf("psimd stopped")
	return 0
}
