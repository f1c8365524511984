package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/simcache"
	"repro/internal/trace"
)

// The figure workloads regenerate Figure 8 (SPP under Original, PSA,
// PSA-2MB and PSA-SD over the 80 intensive workloads: 320 simulations) at
// the golden tests' short windows, where the fixed cost per simulation is a
// large share of the figure's time.
const (
	figWarmup = 20_000
	figInstr  = 80_000
)

func figRunOpt(seed uint64) sim.RunOpt {
	// Samples matches experiments.Options' run options, so the keys below
	// name the entries the figure writes.
	return sim.RunOpt{Warmup: figWarmup, Instructions: figInstr, Seed: seed, Samples: 8}
}

// fig8Jobs lists Figure 8's simulations in the order the figure submits them.
func fig8Jobs() []job {
	var jobs []job
	for _, w := range trace.Intensive() {
		for _, v := range []core.Variant{core.Original, core.PSA, core.PSA2MB, core.PSASD} {
			jobs = append(jobs, job{w, sim.PrefSpec{Base: "spp", Variant: v}})
		}
	}
	return jobs
}

// spread picks n of jobs spaced evenly from a seed-dependent offset.
func spread(jobs []job, n int, seed uint64) []job {
	out := make([]job, 0, n)
	off := int(seed % uint64(len(jobs)))
	for i := 0; i < n; i++ {
		out = append(out, jobs[(off+i*len(jobs)/n)%len(jobs)])
	}
	return out
}

func (b *bench) figOptions(store *simcache.Store, remote experiments.BatchRunner) experiments.Options {
	o := experiments.DefaultOptions()
	o.Warmup, o.Instructions, o.Seed = figWarmup, figInstr, b.seed
	o.Parallelism = runtime.NumCPU()
	o.Cache = store
	o.Remote = remote
	return o
}

// figurePass renders Figure 8 once, runs the figure's own shape checks on
// the render, and checks the render against the oracle.
func (b *bench) figurePass(o experiments.Options, or *oracle) (time.Duration, error) {
	t0 := time.Now()
	r, err := experiments.Run("fig8", o)
	d := time.Since(t0)
	if err != nil {
		return d, fmt.Errorf("fig8: %w", err)
	}
	errs := experiments.CheckAll(r)
	b.rep.check(len(errs) == 0, "fig8 shape checks: %v", errors.Join(errs...))
	or.check("render", digest(r.Render()))
	return d, nil
}

// checkSims compares every simulation the figure stored against the oracle
// and returns the simulated IPCs.
func (b *bench) checkSims(store *simcache.Store, or *oracle) []float64 {
	opt := figRunOpt(b.seed)
	ipcs := make([]float64, 0, 320)
	for _, j := range fig8Jobs() {
		res, ok := store.Get(simcache.Key(sim.DefaultConfig(), j.spec, j.workload, opt))
		b.rep.check(ok, "fig8 %s: no cache entry", j)
		if ok {
			or.check(j.String(), digest(res))
			ipcs = append(ipcs, res.IPC)
		}
	}
	return ipcs
}

// daemon is an in-process psimd: the service over a loopback HTTP server,
// and a client whose connections count the bytes they carry.
type daemon struct {
	srv    *service.Server
	hs     *http.Server
	served chan error
	store  *simcache.Store
	client *service.Client
	base   string
}

func startDaemon(dir string, wire *wireCounter) (*daemon, error) {
	store, err := simcache.New(dir)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		srv:    service.New(service.Config{Store: store, Workers: 2, SimParallelism: runtime.NumCPU()}),
		served: make(chan error, 1),
		store:  store,
		base:   "http://" + ln.Addr().String(),
	}
	d.srv.Start()
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go func() { d.served <- d.hs.Serve(ln) }()
	d.client = service.NewClient(d.base)
	d.client.HTTPClient = &http.Client{Transport: &http.Transport{DialContext: wire.dial}}
	return d, nil
}

// stop shuts the HTTP server and the worker pool and waits for both.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = d.hs.Shutdown(ctx) // a forced close after the timeout is fine here
	<-d.served
	d.srv.Close()
	d.client.HTTPClient.Transport.(*http.Transport).CloseIdleConnections()
}

// scrape reads the daemon's /metrics as name{labels} → value.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// wireCounter counts bytes read and written on the client's connections.
type wireCounter struct{ n atomic.Int64 }

func (w *wireCounter) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	return &countedConn{Conn: c, w: w}, nil
}

type countedConn struct {
	net.Conn
	w *wireCounter
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.w.n.Add(int64(n))
	return n, err
}

func (c *countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.w.n.Add(int64(n))
	return n, err
}

// figureRig runs Figure 8 passes locally or through a fresh daemon per cold
// pass; the last cold pass's cache (and daemon) serve the warm passes.
type figureRig struct {
	b      *bench
	remote bool
	wire   wireCounter
	store  *simcache.Store
	d      *daemon
	opts   experiments.Options
}

// fresh points the rig at an empty result cache (a new daemon when remote).
func (g *figureRig) fresh() error {
	g.close()
	dir, err := g.b.scratch("fig-")
	if err != nil {
		return err
	}
	if !g.remote {
		g.store, err = simcache.New(dir)
		g.opts = g.b.figOptions(g.store, nil)
		return err
	}
	if g.d, err = startDaemon(dir, &g.wire); err != nil {
		return err
	}
	g.store = g.d.store
	g.opts = g.b.figOptions(nil, g.d.client)
	return nil
}

func (g *figureRig) close() {
	if g.d != nil {
		g.d.stop()
		g.d = nil
	}
}

// warmPass renders from a warm cache and checks that nothing simulated.
func (g *figureRig) warmPass(or *oracle) (time.Duration, error) {
	before := g.store.Stats().Misses
	d, err := g.b.figurePass(g.opts, or)
	g.b.rep.check(g.store.Stats().Misses == before, "fig8 warm pass executed %d simulations",
		g.store.Stats().Misses-before)
	return d, err
}

// localReference renders the figure locally into its own cache, untimed,
// and checks its simulations: for the psimd workload this is the render
// and the per-simulation digests every remote pass must reproduce.
func (b *bench) localReference(or *oracle) error {
	dir, err := b.scratch("local-")
	if err != nil {
		return err
	}
	store, err := simcache.New(dir)
	if err != nil {
		return err
	}
	if _, err := b.figurePass(b.figOptions(store, nil), or); err != nil {
		return err
	}
	b.checkSims(store, or)
	return nil
}

// figureEndToEnd measures a figure workload untraced: construction time,
// then cold renders into empty caches for the budget, each timed at the
// reference speed (speed.go) by a sampler running during it.
func figureEndToEnd(remote bool) func(b *bench) error {
	return func(b *bench) error {
		jobs := fig8Jobs()
		b.measureSetup(sim.DefaultConfig(), spread(jobs, 10, 0))
		or := b.oracle("fig8")
		if remote {
			if err := b.localReference(or); err != nil {
				return err
			}
		}
		g := &figureRig{b: b, remote: remote}
		defer g.close()

		runtime.GC()
		allocs := startAllocs()
		var cold, wall []float64     // at the reference speed; wall clock
		var stores []*simcache.Store // checked after the allocation meter stops
		start := time.Now()
		for len(wall) == 0 || b.fits(start, median(wall)) {
			if err := g.fresh(); err != nil {
				return err
			}
			s := startSampler()
			d, err := b.figurePass(g.opts, or)
			ref := s.atRef(d.Seconds())
			if err != nil {
				return err
			}
			cold = append(cold, ref)
			wall = append(wall, d.Seconds())
			b.rep.check(g.store.Stats().Misses == uint64(len(jobs)), "fig8 cold pass executed %d of %d simulations",
				g.store.Stats().Misses, len(jobs))
			stores = append(stores, g.store)
		}
		mallocs, bytes := allocs.since()
		var ipcs []float64
		for _, st := range stores {
			ipcs = b.checkSims(st, or)
		}
		// Only the last render's cache stays referenced (by the rig), so the
		// retained heap does not grow with the number of renders that fit.
		stores = nil
		retained := retainedHeap()
		// After the retained heap, as in rowsEndToEnd; the sampled jobs
		// differ by seed, and so do the tables they memoize.
		b.checkStoredSeeds("fig8", spread(jobs, 8, b.seed), figRunOpt(0))

		instr := float64(len(jobs)) * nominalInstr(figRunOpt(b.seed), 1)
		passes := float64(len(cold))
		b.rep.add("sim_minstr_per_s", "Minstr/s", instr/median(cold)/1e6)
		b.rep.add("figure_cold_s", "s", median(cold))
		b.rep.add("allocs_per_kinstr", "allocs/kinstr", mallocs/(instr*passes/1000))
		b.rep.add("alloc_mb_per_sim", "MB/sim", bytes/(float64(len(jobs))*passes)/(1<<20))
		b.rep.add("retained_heap_mb", "MB", retained)
		b.rep.add("sim_ipc_geomean", "IPC", geomean(ipcs))
		b.rep.note("fig8 %dk+%dk x %d sims, parallelism %d: cold renders %.3vs wall clock, %.3vs at the reference speed, seed %d, oracle: %s",
			figWarmup/1000, figInstr/1000, len(jobs), runtime.NumCPU(), wall, cold, b.seed, oracleKind(or))
		return nil
	}
}
