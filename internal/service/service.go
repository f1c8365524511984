// Package service implements psimd, a long-running simulation daemon: an
// HTTP/JSON API that accepts batches of simulations, runs them on a bounded
// worker pool backed by the shared content-addressed result cache
// (internal/simcache), and streams each job's current view over SSE.
//
// The production behaviors are part of the design rather than bolted on:
//
//   - Admission control: a bounded queue of pending jobs; a full queue
//     rejects with 429 + Retry-After instead of accepting unbounded work.
//   - Cross-request dedup: every simulation goes through the store's
//     single-flight DoContext, so two clients asking for the same
//     (config, spec, workload, runopt) key cost one simulation.
//   - Deadlines: a per-job timeout propagates as a context.Context through
//     the batch into the simulator loop, which stops at its next sampling
//     boundary; errors (including cancellations) are never cached.
//   - Graceful drain: Drain stops admission, lets accepted jobs finish, and
//     only force-cancels what is still running when its timeout expires.
//   - Observability: /healthz and /metrics (Prometheus text) expose queue
//     depth, in-flight sims, cache hit ratio, throughput, and job latency
//     quantiles.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dtrace"
	"repro/internal/sim"
	"repro/internal/simcache"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Config sizes the daemon.
type Config struct {
	// Store memoizes results and provides cross-request single-flight
	// dedup. Nil runs every simulation (no caching, no dedup).
	Store *simcache.Store
	// Workers is the number of jobs making progress concurrently
	// (default 4).
	Workers int
	// SimParallelism bounds concurrent simulations across all jobs
	// (default GOMAXPROCS).
	SimParallelism int
	// QueueDepth bounds jobs accepted but not yet picked up by a worker
	// (default 64). A full queue rejects submissions with ErrQueueFull.
	QueueDepth int
	// MaxBatch bounds simulations per request (default 4096).
	MaxBatch int
	// DefaultTimeout applies to jobs that do not set one; 0 means no
	// deadline.
	DefaultTimeout time.Duration
	// Cluster, when non-nil, joins this daemon to a psimd cluster: a
	// consistent-hash ring over simcache keys routes each simulation to an
	// owner node, which answers peers from its store or computes. Requires
	// Store (the ring routes over cache keys); ignored without one.
	Cluster *cluster.Options
	// Flight, when non-nil, is this daemon's span flight recorder: every
	// request path (admission, queue wait, simulation, cluster hops) records
	// spans into it, a traceparent header on POST /v1/sims parents them under
	// the caller's trace, and GET /debug/flight serves the retained spans.
	// Nil (the default) disables tracing for free — the recording paths are
	// nil-check no-ops.
	Flight *dtrace.Recorder
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.SimParallelism <= 0 {
		c.SimParallelism = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 4096
	}
	return c
}

// retryAfterSeconds is the backoff hint sent with a 429.
const retryAfterSeconds = "1"

// keepFinished is how many terminal jobs remain queryable before the oldest
// are evicted.
const keepFinished = 256

// Submission errors, mapped to HTTP statuses by the handlers.
var (
	// ErrQueueFull rejects a submission when the admission queue is at
	// capacity (HTTP 429).
	ErrQueueFull = errors.New("service: admission queue full")
	// ErrDraining rejects a submission during shutdown (HTTP 503).
	ErrDraining = errors.New("service: draining, not accepting jobs")
)

// unit is one resolved simulation of a job.
type unit struct {
	w    trace.Workload
	spec sim.PrefSpec
}

// telAccum sums the headline counters of a job's completed simulations
// (cache hits included — a recalled Result carries the same stats), from
// which snapshot derives the JobView's JobTelemetry rates.
type telAccum struct {
	sims          int
	instr, cycles uint64

	l1dHits, l1dMisses uint64
	l2Hits, l2Misses   uint64
	llcHits, llcMisses uint64

	l2Useful, l2Late, l2Unused uint64
	pfIssued, pfCross4K        uint64
}

func (a *telAccum) add(r sim.Result) {
	a.sims++
	a.instr += r.Instructions
	a.cycles += uint64(r.Cycles)
	a.l1dHits += r.L1D.DemandHits
	a.l1dMisses += r.L1D.DemandMisses
	a.l2Hits += r.L2.DemandHits
	a.l2Misses += r.L2.DemandMisses
	a.llcHits += r.LLC.DemandHits
	a.llcMisses += r.LLC.DemandMisses
	a.l2Useful += r.L2.PrefetchUseful
	a.l2Late += r.L2.PrefetchLate
	a.l2Unused += r.L2.PrefetchUnused
	a.pfIssued += r.Engine.Issued
	a.pfCross4K += r.Engine.CrossedPage4K
}

// snapshot derives the wire-level aggregate; nil before the first completed
// simulation (a job that has only cache misses pending has nothing to show).
func (a *telAccum) snapshot() *JobTelemetry {
	if a.sims == 0 {
		return nil
	}
	div := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	t := &JobTelemetry{
		Instructions: a.instr,
		Cycles:       a.cycles,
		PrefIssued:   a.pfIssued,
		PrefCross4K:  a.pfCross4K,
	}
	t.IPC = div(float64(a.instr), float64(a.cycles))
	t.L1DHitRatio = div(float64(a.l1dHits), float64(a.l1dHits+a.l1dMisses))
	t.L2HitRatio = div(float64(a.l2Hits), float64(a.l2Hits+a.l2Misses))
	t.LLCHitRatio = div(float64(a.llcHits), float64(a.llcHits+a.llcMisses))
	t.L2MPKI = div(float64(a.l2Misses)*1000, float64(a.instr))
	t.L2Accuracy = div(float64(a.l2Useful+a.l2Late), float64(a.l2Useful+a.l2Late+a.l2Unused))
	t.L2Coverage = div(float64(a.l2Useful), float64(a.l2Useful+a.l2Misses))
	t.CrossPageRate = div(float64(a.pfCross4K), float64(a.pfIssued))
	return t
}

// jobState is a job's full server-side state. Every change bumps version and
// closes and replaces changed, which lets any number of SSE subscribers
// follow the current view without per-subscriber registration.
type jobState struct {
	id      string
	cfg     sim.Config
	opt     sim.RunOpt
	units   []unit
	timeout time.Duration

	// enqueuedAt is when admission accepted the job; the queue-wait
	// histogram and the job.queue_wait span measure from it.
	enqueuedAt time.Time
	// tsc is the submitting client's trace position (zero when the request
	// carried no traceparent); the job's spans parent under it.
	tsc dtrace.SpanContext

	mu       sync.Mutex
	status   JobStatus
	wantStop bool               // cancel requested (DELETE)
	cancel   context.CancelFunc // non-nil while running
	done     int
	hits     int
	executed int
	tel      telAccum
	results  []sim.Result
	errMsg   string
	version  uint64
	changed  chan struct{}
}

// view renders the externally visible state.
func (j *jobState) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.viewLocked()
}

// viewLocked renders the externally visible state, with Results once done.
// Callers hold j.mu.
func (j *jobState) viewLocked() JobView {
	v := JobView{
		ID: j.id, Status: j.status, Total: len(j.units),
		Done: j.done, Hits: j.hits, Executed: j.executed, Error: j.errMsg,
		Telemetry: j.tel.snapshot(),
	}
	if j.status == StatusDone {
		v.Results = j.results
	}
	return v
}

// changedLocked bumps the version and wakes subscribers. Callers hold j.mu.
func (j *jobState) changedLocked() {
	j.version++
	close(j.changed)
	j.changed = make(chan struct{})
}

// step records one finished simulation and folds its result into the job's
// telemetry aggregate.
func (j *jobState) step(hit bool, res sim.Result) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.done++
	if hit {
		j.hits++
	} else {
		j.executed++
	}
	j.tel.add(res)
	j.changedLocked()
}

// Server runs jobs and serves the API. Create with New, start the worker
// pool with Start, expose Handler over HTTP, and stop with Drain (graceful)
// or Close (immediate).
type Server struct {
	cfg    Config
	queue  chan *jobState
	simSem chan struct{}

	baseCtx context.Context // parent of every job; canceled by Close
	stop    context.CancelFunc

	mu       sync.Mutex
	draining bool
	closed   bool // queue channel closed (Drain or Close)
	jobs     map[string]*jobState
	order    []string // submission order, for finished-job eviction
	nextID   uint64

	wg sync.WaitGroup
	m  metrics

	// cluster is this daemon's membership in a multi-node deployment; nil
	// when running single-node (see Config.Cluster).
	cluster *cluster.Node

	// live holds the collector of every currently executing instrumented
	// simulation; /metrics averages their latest epochs into the
	// psimd_live_* gauges.
	liveMu sync.Mutex
	live   map[*telemetry.Collector]struct{}

	// simFn runs one simulation; tests substitute controllable stand-ins.
	simFn func(ctx context.Context, cfg sim.Config, spec sim.PrefSpec, w trace.Workload, opt sim.RunOpt) (sim.Result, error)
}

// New builds a server; call Start to launch its workers.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		queue:   make(chan *jobState, cfg.QueueDepth),
		simSem:  make(chan struct{}, cfg.SimParallelism),
		baseCtx: ctx,
		stop:    stop,
		jobs:    map[string]*jobState{},
		live:    map[*telemetry.Collector]struct{}{},
		m:       newMetrics(),
		simFn:   sim.RunContext,
	}
	if cfg.Cluster != nil && cfg.Store != nil {
		s.cluster = cluster.NewNode(*cfg.Cluster, s.Draining)
	}
	return s
}

// Start launches the worker pool (and, when clustered, the heartbeat
// loop).
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if s.cluster != nil {
		s.cluster.Start()
	}
}

// Stats returns the store's cache counters (zero Stats when uncached).
func (s *Server) Stats() simcache.Stats {
	if s.cfg.Store == nil {
		return simcache.Stats{}
	}
	return s.cfg.Store.Stats()
}

// worker executes queued jobs until the queue is closed (drain) or the base
// context is canceled (hard stop).
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case j, ok := <-s.queue:
			if !ok {
				return
			}
			s.runJob(j)
		}
	}
}

// Submit validates and enqueues a request, returning the queued job. tsc is
// the caller's trace position (zero for untraced requests).
func (s *Server) submit(req SimRequest, tsc dtrace.SpanContext) (*jobState, error) {
	units, err := validateSimRequest(req, s.cfg.MaxBatch)
	if err != nil {
		return nil, err
	}
	cfg := sim.DefaultConfig()
	if req.Config != nil {
		cfg = *req.Config
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	j := &jobState{
		cfg: cfg, opt: req.Opt, units: units, timeout: timeout,
		status: StatusQueued, changed: make(chan struct{}),
		enqueuedAt: time.Now(), tsc: tsc,
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.m.jobsRejected.Add(1)
		return nil, ErrDraining
	}
	s.nextID++
	j.id = fmt.Sprintf("j%d", s.nextID)
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		s.m.jobsRejected.Add(1)
		return nil, ErrQueueFull
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.gcLocked()
	s.mu.Unlock()
	s.m.jobsSubmitted.Add(1)
	return j, nil
}

// validateSimRequest checks a submit body's static invariants, validates its
// run options and machine configuration (sim.RunOpt.Validate,
// sim.Config.Validate) and resolves every job spec against the workload
// catalogue; maxBatch bounds the batch size. It is the pure half of submit —
// no server state — so the fuzz harness can drive it with arbitrary decoded
// requests. Base is deliberately not validated here: an unknown prefetcher
// fails the job at run time, which keeps the submit path independent of the
// prefetcher registry.
func validateSimRequest(req SimRequest, maxBatch int) ([]unit, error) {
	if len(req.Jobs) == 0 {
		return nil, fmt.Errorf("service: empty batch")
	}
	if len(req.Jobs) > maxBatch {
		return nil, fmt.Errorf("service: batch of %d exceeds limit %d", len(req.Jobs), maxBatch)
	}
	if req.Opt.Instructions == 0 {
		return nil, fmt.Errorf("service: opt.Instructions must be positive")
	}
	if err := req.Opt.Validate(); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	if req.Config != nil {
		// A bad machine is the client's error: answer it at submit rather
		// than queue a job that can only fail.
		if err := req.Config.Validate(); err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
	}
	units := make([]unit, len(req.Jobs))
	for i, spec := range req.Jobs {
		u, err := resolve(spec)
		if err != nil {
			return nil, fmt.Errorf("service: job %d: %w", i, err)
		}
		units[i] = u
	}
	return units, nil
}

// resolve maps a wire spec onto the catalogue and prefetcher registry.
func resolve(spec SimSpec) (unit, error) {
	w, err := trace.ByName(spec.Workload)
	if err != nil {
		return unit{}, err
	}
	v, err := core.ParseVariant(spec.Variant)
	if err != nil {
		return unit{}, err
	}
	switch sim.L1Pref(spec.L1) {
	case sim.L1None, sim.L1NextLine, sim.L1IPCP, sim.L1IPCPPP:
	default:
		return unit{}, fmt.Errorf("unknown L1 prefetcher %q", spec.L1)
	}
	return unit{w: w, spec: sim.PrefSpec{Base: spec.Base, Variant: v, L1: sim.L1Pref(spec.L1)}}, nil
}

// Job looks up a job by ID.
func (s *Server) lookup(id string) (*jobState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel requests cancellation: queued jobs terminate immediately, running
// jobs have their context canceled and stop at the next simulation boundary.
// Canceling a terminal job is a no-op. Returns false for unknown IDs.
func (s *Server) cancelJob(id string) bool {
	j, ok := s.lookup(id)
	if !ok {
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.Terminal() {
		return true
	}
	j.wantStop = true
	if j.cancel != nil {
		j.cancel()
	} else if j.status == StatusQueued {
		// Terminate now; the worker that eventually pops it skips it.
		s.finishLocked(j, StatusCanceled, "canceled")
	}
	return true
}

// finishLocked moves j to a terminal status, counts it, and wakes its
// subscribers. Callers hold j.mu.
func (s *Server) finishLocked(j *jobState, status JobStatus, errMsg string) {
	j.status, j.errMsg = status, errMsg
	j.changedLocked()
	switch status {
	case StatusDone:
		s.m.jobsDone.Add(1)
	case StatusFailed:
		s.m.jobsFailed.Add(1)
	default:
		s.m.jobsCanceled.Add(1)
	}
}

// gcLocked evicts the oldest terminal jobs beyond the retention cap so the
// job table cannot grow without bound. Callers hold s.mu.
func (s *Server) gcLocked() {
	finished := 0
	for _, id := range s.order {
		if j := s.jobs[id]; j != nil {
			j.mu.Lock()
			t := j.status.Terminal()
			j.mu.Unlock()
			if t {
				finished++
			}
		}
	}
	if finished <= keepFinished {
		return
	}
	keep := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		if j == nil {
			continue
		}
		j.mu.Lock()
		t := j.status.Terminal()
		j.mu.Unlock()
		if t && finished > keepFinished {
			delete(s.jobs, id)
			finished--
			continue
		}
		keep = append(keep, id)
	}
	s.order = keep
}

// runJob executes one job's batch over the shared simulation semaphore.
func (s *Server) runJob(j *jobState) {
	parent := s.baseCtx
	var ctx context.Context
	var cancel context.CancelFunc
	if j.timeout > 0 {
		ctx, cancel = context.WithTimeout(parent, j.timeout)
	} else {
		ctx, cancel = context.WithCancel(parent)
	}
	defer cancel()

	j.mu.Lock()
	if j.status.Terminal() { // canceled while queued
		j.mu.Unlock()
		return
	}
	j.status = StatusRunning
	j.cancel = cancel
	j.changedLocked()
	j.mu.Unlock()

	s.m.queueWait.Observe(uint64(time.Since(j.enqueuedAt)))
	// job.run is the server-side root of the job's span tree, parented under
	// the submitting client's span when the request carried a traceparent.
	// job.queue_wait hangs off it, backdated to admission, so the trace shows
	// how long the batch sat before a worker picked it up.
	runSpan := s.cfg.Flight.StartSpan(j.tsc, "job.run")
	runSpan.Annotate(j.id)
	if qs := s.cfg.Flight.StartSpan(runSpan.Context(), "job.queue_wait"); qs != nil {
		qs.SetStart(j.enqueuedAt)
		qs.End()
	}
	ctx = dtrace.NewContext(ctx, s.cfg.Flight, runSpan.Context())

	s.m.jobsRunning.Add(1)
	start := time.Now()
	results := make([]sim.Result, len(j.units))
	errs := make([]error, len(j.units))
	var wg sync.WaitGroup
	for i, u := range j.units {
		wg.Add(1)
		go func(i int, u unit) {
			defer wg.Done()
			if errs[i] = ctx.Err(); errs[i] != nil {
				return
			}
			uctx, sp := dtrace.Start(ctx, "sim")
			if sp != nil {
				sp.Annotate(u.w.Name + " " + u.spec.Base)
			}
			// simulate routes the unit (a cluster peer may serve or compute
			// it instead; only a local flight leader takes an execution
			// slot), and hit/executed accounting happens at the point the
			// outcome is known.
			var outcome simOutcome
			results[i], outcome, errs[i] = s.simulate(uctx, j.cfg, u, j.opt)
			if sp != nil {
				if errs[i] != nil {
					sp.Fail(errs[i])
				} else {
					sp.Annotate(u.w.Name + " " + outcome.String())
				}
				sp.End()
			}
			if errs[i] == nil {
				s.m.pfIssued.Add(results[i].Engine.Issued)
				s.m.pfCross4K.Add(results[i].Engine.CrossedPage4K)
				j.step(outcome.hit(), results[i])
			}
		}(i, u)
	}
	wg.Wait()
	s.m.jobsRunning.Add(-1)
	s.m.observeLatency(time.Since(start))

	err := errors.Join(errs...)
	runSpan.Fail(err)
	runSpan.End()
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cancel = nil
	switch {
	case err == nil:
		j.results = results
		s.finishLocked(j, StatusDone, "")
	case j.wantStop || s.baseCtx.Err() != nil:
		s.finishLocked(j, StatusCanceled, "canceled")
	default:
		s.finishLocked(j, StatusFailed, err.Error())
	}
}

// execUnit runs (or recalls) one simulation locally through the store's
// single-flight DoContext. Only the flight's leader takes a slot on the
// shared semaphore, inside run: store hits and waiters on another request's
// flight never hold one, so a cached key is answered while every slot is
// busy. It is the terminal execution path of every route — local jobs,
// cluster failover, and proxied owner requests all land here — and owns the
// hit/executed metric accounting for this daemon. Each executed simulation
// (cache hits never execute) longer than one telemetry epoch carries a live
// collector that /metrics samples while the run is in flight; a shorter run
// closes its only epoch as it ends, so the gauges could never show it.
func (s *Server) execUnit(ctx context.Context, cfg sim.Config, u unit, opt sim.RunOpt) (sim.Result, bool, error) {
	// simEnd is set iff run executed on this goroutine (we were the flight
	// leader); the store write then spans [simEnd, DoContext return].
	var simEnd time.Time
	run := func(ctx context.Context) (sim.Result, error) {
		select {
		case s.simSem <- struct{}{}:
		case <-ctx.Done():
			return sim.Result{}, ctx.Err()
		}
		defer func() { <-s.simSem }()
		if err := ctx.Err(); err != nil {
			return sim.Result{}, err
		}
		rctx, rs := dtrace.Start(ctx, "sim.run")
		if opt.Instructions > sim.DefaultEpochInstructions {
			_, ts := dtrace.Start(rctx, "telemetry.attach")
			col := telemetry.NewCollector()
			s.addLive(col)
			defer s.removeLive(col)
			rctx = sim.WithInstrumentation(rctx, &sim.Instrumentation{Collector: col})
			ts.End()
		}
		r, err := s.simFn(rctx, cfg, u.spec, u.w, opt)
		rs.Fail(err)
		rs.End()
		simEnd = time.Now()
		return r, err
	}
	if s.cfg.Store == nil {
		r, err := run(ctx)
		if err == nil {
			s.m.simsExecuted.Add(1)
		}
		return r, false, err
	}
	res, hit, err := s.cfg.Store.DoContext(ctx, simcache.Key(cfg, u.spec, u.w, opt), run)
	if err == nil && !hit && !simEnd.IsZero() {
		// The store serialized and persisted the entry between the run's end
		// and DoContext returning; record that window as the cache.store span.
		if rec := dtrace.RecorderFrom(ctx); rec != nil {
			st := rec.StartSpan(dtrace.SpanContextFrom(ctx), "cache.store")
			st.SetStart(simEnd)
			st.End()
		}
	}
	if err == nil {
		if hit {
			s.m.cacheHits.Add(1)
		} else {
			s.m.simsExecuted.Add(1)
		}
	}
	return res, hit, err
}

func (s *Server) addLive(c *telemetry.Collector) {
	s.liveMu.Lock()
	s.live[c] = struct{}{}
	s.liveMu.Unlock()
}

func (s *Server) removeLive(c *telemetry.Collector) {
	s.liveMu.Lock()
	delete(s.live, c)
	s.liveMu.Unlock()
}

// liveMetricKeys are the derived per-epoch metrics averaged across executing
// simulations for the /metrics psimd_live_* gauges (names from the
// simulator's telemetry probes).
var liveMetricKeys = []string{"ipc", "l1d_hit_ratio", "l2_hit_ratio", "llc_hit_ratio", "pf_cross4k_rate"}

// liveTelemetry averages the latest closed epoch of every executing
// simulation's collector. n counts only runs that have closed at least one
// epoch; avg is nil when n is zero.
func (s *Server) liveTelemetry() (n int, avg map[string]float64) {
	s.liveMu.Lock()
	cols := make([]*telemetry.Collector, 0, len(s.live))
	for c := range s.live {
		cols = append(cols, c)
	}
	s.liveMu.Unlock()
	sums := map[string]float64{}
	for _, c := range cols {
		m := c.Latest()
		if m == nil {
			continue // still inside its first epoch
		}
		n++
		for _, k := range liveMetricKeys {
			sums[k] += m[k]
		}
	}
	if n == 0 {
		return 0, nil
	}
	for k := range sums {
		sums[k] /= float64(n)
	}
	return n, sums
}

// Draining reports whether the server has stopped accepting jobs.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully shuts the pool down: admission stops immediately
// (submissions fail with ErrDraining, /healthz turns 503), accepted jobs
// keep running, and Drain returns once every worker has exited. If the jobs
// have not finished within timeout, their contexts are canceled — they stop
// at the next simulation boundary and report canceled — and Drain returns an
// error naming the force-stop.
func (s *Server) Drain(timeout time.Duration) error {
	s.mu.Lock()
	if !s.closed {
		s.draining = true
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()

	if s.cluster != nil {
		// Announce the departure so peers reroute new work immediately;
		// already-accepted jobs below still complete (the cluster handler
		// keeps serving cache fetches while we drain).
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		s.cluster.Leave(ctx)
		cancel()
	}

	workersDone := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(workersDone)
	}()
	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	var err error
	select {
	case <-workersDone:
	case <-timer:
		s.stop() // cancel every job's context
		<-workersDone
		err = fmt.Errorf("service: drain timed out after %s; in-flight jobs canceled", timeout)
	}
	if s.cluster != nil {
		s.cluster.Close()
	}
	return err
}

// Close stops immediately: admission ends and every running job's context is
// canceled. Prefer Drain for orderly shutdown.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.closed {
		s.draining = true
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.stop()
	s.wg.Wait()
	if s.cluster != nil {
		s.cluster.Close()
	}
}
