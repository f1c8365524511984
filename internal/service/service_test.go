package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/simcache"
	"repro/internal/trace"
)

// simFunc mirrors Server.simFn so tests can substitute controllable sims.
type simFunc func(ctx context.Context, cfg sim.Config, spec sim.PrefSpec, w trace.Workload, opt sim.RunOpt) (sim.Result, error)

// startServer builds, starts, and registers cleanup for a test daemon. fn
// replaces the real simulator when non-nil.
func startServer(t *testing.T, cfg Config, fn simFunc) (*Server, *httptest.Server, *Client) {
	t.Helper()
	s := New(cfg)
	if fn != nil {
		s.simFn = fn
	}
	s.Start()
	t.Cleanup(s.Close)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs, NewClient(hs.URL)
}

// testRequest is a minimal valid request of n identical simulations.
func testRequest(n int) SimRequest {
	jobs := make([]SimSpec, n)
	for i := range jobs {
		jobs[i] = SimSpec{Workload: "milc", Base: "spp", Variant: "psa-sd"}
	}
	return SimRequest{Jobs: jobs, Opt: sim.RunOpt{Warmup: 1, Instructions: 1, Seed: 1, Samples: 1}}
}

// submitJob posts req once to the client's first endpoint.
func submitJob(ctx context.Context, c *Client, req SimRequest) (JobView, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return JobView{}, err
	}
	v, _, err := c.submit(ctx, c.first(), body)
	return v, err
}

// rawSubmit posts without the client's 429-retry loop, so tests can observe
// the rejection itself.
func rawSubmit(t *testing.T, url string, req SimRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/sims", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// blockingSim returns a sim function that signals each start on started and
// then holds until gate closes (or the context dies).
func blockingSim(started chan<- struct{}, gate <-chan struct{}) simFunc {
	return func(ctx context.Context, cfg sim.Config, spec sim.PrefSpec, w trace.Workload, opt sim.RunOpt) (sim.Result, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		select {
		case <-gate:
			return sim.Result{Workload: w.Name, Spec: spec.String(), IPC: 1}, nil
		case <-ctx.Done():
			return sim.Result{}, ctx.Err()
		}
	}
}

func waitStarted(t *testing.T, started <-chan struct{}) {
	t.Helper()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("simulation never started")
	}
}

// TestQueueBackpressure: with one worker busy and a one-slot queue occupied,
// the next submission is rejected with 429 and a Retry-After hint rather than
// buffered; once the backlog clears, submissions are accepted again.
func TestQueueBackpressure(t *testing.T) {
	started := make(chan struct{}, 4)
	gate := make(chan struct{})
	_, hs, c := startServer(t, Config{Workers: 1, QueueDepth: 1, SimParallelism: 1}, blockingSim(started, gate))

	a := rawSubmit(t, hs.URL, testRequest(1))
	if a.StatusCode != http.StatusAccepted {
		t.Fatalf("job A status = %d, want 202", a.StatusCode)
	}
	waitStarted(t, started) // A is off the queue and inside the simulator

	b := rawSubmit(t, hs.URL, testRequest(1))
	if b.StatusCode != http.StatusAccepted {
		t.Fatalf("job B status = %d, want 202 (queue has one slot)", b.StatusCode)
	}
	rej := rawSubmit(t, hs.URL, testRequest(1))
	if rej.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job C status = %d, want 429", rej.StatusCode)
	}
	if ra := rej.Header.Get("Retry-After"); ra == "" {
		t.Error("429 carried no Retry-After header")
	}

	close(gate)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, id := range []string{"j1", "j2"} {
		v, err := c.follow(ctx, c.first(), id, nil)
		if err != nil {
			t.Fatalf("follow %s: %v", id, err)
		}
		if v.Status != StatusDone {
			t.Errorf("job %s finished %s, want done", id, v.Status)
		}
	}
	// Backlog cleared: admission works again.
	if resp := rawSubmit(t, hs.URL, testRequest(1)); resp.StatusCode != http.StatusAccepted {
		t.Errorf("post-backlog submission status = %d, want 202", resp.StatusCode)
	}
}

// TestDeadlineCancellation: a request deadline propagates as a context into
// the simulation, which stops and fails the job with a deadline error.
func TestDeadlineCancellation(t *testing.T) {
	started := make(chan struct{}, 1)
	gate := make(chan struct{}) // never closed: only the deadline can end the sim
	_, _, c := startServer(t, Config{Workers: 1}, blockingSim(started, gate))

	req := testRequest(1)
	req.TimeoutMS = 50
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	v, err := submitJob(ctx, c, req)
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.follow(ctx, c.first(), v.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusFailed {
		t.Fatalf("status = %s, want failed", final.Status)
	}
	if !strings.Contains(final.Error, "deadline") {
		t.Errorf("error = %q, want a deadline error", final.Error)
	}
}

// TestCancelRunningJob: DELETE on a running job cancels its context; the job
// reports canceled, not failed.
func TestCancelRunningJob(t *testing.T) {
	started := make(chan struct{}, 1)
	gate := make(chan struct{})
	_, _, c := startServer(t, Config{Workers: 1}, blockingSim(started, gate))

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	v, err := submitJob(ctx, c, testRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	waitStarted(t, started)
	if err := c.cancel(ctx, c.first(), v.ID); err != nil {
		t.Fatal(err)
	}
	final, err := c.follow(ctx, c.first(), v.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusCanceled {
		t.Errorf("status = %s, want canceled", final.Status)
	}
}

// TestCrossRequestSingleFlight: N concurrent identical requests cost one
// simulation; the rest are served by the in-flight share or the disk entry it
// leaves behind.
func TestCrossRequestSingleFlight(t *testing.T) {
	const clients = 4
	store, err := simcache.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var executions atomic.Int32
	started := make(chan struct{}, clients)
	gate := make(chan struct{})
	inner := blockingSim(started, gate)
	counting := func(ctx context.Context, cfg sim.Config, spec sim.PrefSpec, w trace.Workload, opt sim.RunOpt) (sim.Result, error) {
		executions.Add(1)
		return inner(ctx, cfg, spec, w, opt)
	}
	s, _, c := startServer(t, Config{Store: store, Workers: clients, SimParallelism: clients}, counting)

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	views := make([]JobView, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := submitJob(ctx, c, testRequest(1))
			if err != nil {
				errs[i] = err
				return
			}
			views[i], errs[i] = c.follow(ctx, c.first(), v.ID, nil)
		}(i)
	}
	// Hold the gate until every job is running, so the requests genuinely
	// overlap; then let the single owner finish.
	deadline := time.Now().Add(5 * time.Second)
	for s.m.jobsRunning.Load() != clients {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d jobs running", s.m.jobsRunning.Load(), clients)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if views[i].Status != StatusDone || len(views[i].Results) != 1 {
			t.Fatalf("client %d: status %s, %d results", i, views[i].Status, len(views[i].Results))
		}
		got, _ := json.Marshal(views[i].Results[0])
		want, _ := json.Marshal(views[0].Results[0])
		if !bytes.Equal(got, want) {
			t.Errorf("client %d received a different result", i)
		}
	}
	if n := executions.Load(); n != 1 {
		t.Errorf("%d clients executed %d simulations, want 1", clients, n)
	}
	if st := store.Stats(); st.Misses != 1 || st.Hits+st.Shared != clients-1 {
		t.Errorf("cache stats = %+v, want 1 miss and %d hits+shared", st, clients-1)
	}
}

// TestCachedKeyNeedsNoSlot: with the only simulation slot held by a running
// simulation, a job for a key already in the store still completes, since
// store hits never wait for a slot.
func TestCachedKeyNeedsNoSlot(t *testing.T) {
	store, err := simcache.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{}, 1)
	gate := make(chan struct{})
	defer close(gate)
	_, _, c := startServer(t, Config{Store: store, Workers: 2, SimParallelism: 1}, blockingSim(started, gate))

	cached := testRequest(1)
	u, err := resolve(cached.Jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	want := sim.Result{Workload: "milc", IPC: 2}
	if err := store.Put(simcache.Key(sim.DefaultConfig(), u.spec, u.w, cached.Opt), want); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	busy := testRequest(1)
	busy.Opt.Seed = 2 // a different, uncached key
	if _, err := submitJob(ctx, c, busy); err != nil {
		t.Fatal(err)
	}
	waitStarted(t, started) // the busy job holds the only slot

	v, err := submitJob(ctx, c, cached)
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.follow(ctx, c.first(), v.ID, nil)
	if err != nil {
		t.Fatalf("cached job while the only slot is busy: %v", err)
	}
	if final.Status != StatusDone || len(final.Results) != 1 || final.Results[0].IPC != want.IPC {
		t.Fatalf("cached job: status %s, results %+v", final.Status, final.Results)
	}
}

// TestFlightWaiterHoldsNoSlot: two concurrent jobs for one uncached key run
// one simulation, and only its leader holds a slot; the waiter on the
// leader's flight does not.
func TestFlightWaiterHoldsNoSlot(t *testing.T) {
	store, err := simcache.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{}, 2)
	gate := make(chan struct{})
	s, hs, c := startServer(t, Config{Store: store, Workers: 2, SimParallelism: 2}, blockingSim(started, gate))

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	ids := make([]string, 2)
	for i := range ids {
		v, err := submitJob(ctx, c, testRequest(1))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = v.ID
	}
	waitStarted(t, started)
	deadline := time.Now().Add(5 * time.Second)
	for s.m.jobsRunning.Load() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/2 jobs running", s.m.jobsRunning.Load())
		}
		time.Sleep(time.Millisecond)
	}
	// Both jobs are running and the leader's flight stays blocked on gate,
	// so the waiter reaches the flight well within this pause.
	time.Sleep(50 * time.Millisecond)
	body := scrapeMetrics(t, hs.URL)
	close(gate)
	if !strings.Contains(body, "\npsimd_sims_inflight 1\n") {
		t.Errorf("while the leader runs, /metrics should read psimd_sims_inflight 1:\n%s", body)
	}
	for _, id := range ids {
		final, err := c.follow(ctx, c.first(), id, nil)
		if err != nil {
			t.Fatal(err)
		}
		if final.Status != StatusDone {
			t.Fatalf("job %s: %s (%s)", id, final.Status, final.Error)
		}
	}
	if st := store.Stats(); st.Misses != 1 || st.Shared != 1 {
		t.Errorf("cache stats = %+v, want 1 miss and 1 shared flight", st)
	}
}

// TestSSEStreamsJobView: a live subscriber sees views whose Done never
// decreases and that end in a done view with Done == Total; a subscriber that
// connects after completion gets exactly one frame, the terminal view; and a
// canceled job's stream ends with status canceled.
func TestSSEStreamsJobView(t *testing.T) {
	const batch = 3
	gate := make(chan struct{})
	_, hs, c := startServer(t, Config{Workers: 1, SimParallelism: 1}, blockingSim(nil, gate))

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	v, err := submitJob(ctx, c, testRequest(batch))
	if err != nil {
		t.Fatal(err)
	}
	// One frame at most per change plus the first: running, each step, done.
	views := make(chan JobView, batch+3)
	followed := make(chan error, 1)
	go func() {
		_, err := c.follow(ctx, c.first(), v.ID, func(v JobView) { views <- v })
		close(views)
		followed <- err
	}()
	// The first frame is the job's state at subscription, before any
	// simulation may finish; then the gate releases one simulation at a time.
	live := []JobView{<-views}
	for i := 0; i < batch; i++ {
		gate <- struct{}{}
	}
	for v := range views {
		live = append(live, v)
	}
	if err := <-followed; err != nil {
		t.Fatal(err)
	}
	if live[0].Done != 0 || live[0].Status.Terminal() {
		t.Errorf("first live view = %+v, want a job with nothing done", live[0])
	}
	for i := 1; i < len(live); i++ {
		if live[i].Done < live[i-1].Done {
			t.Errorf("view %d Done went backwards: %d after %d", i, live[i].Done, live[i-1].Done)
		}
	}
	last := live[len(live)-1]
	if last.Status != StatusDone || last.Done != last.Total || last.Total != batch || last.Results != nil {
		t.Errorf("last live view = %+v, want done with Done == Total == %d and no results", last, batch)
	}

	// A subscriber connecting after completion gets one frame: the terminal
	// view, named by its status.
	resp, err := http.Get(hs.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	frames := strings.Split(strings.TrimSuffix(string(body), "\n\n"), "\n\n")
	if len(frames) != 1 || !strings.Contains(frames[0], "\nevent: done\ndata: ") {
		t.Fatalf("late subscriber got %d frames, want one done frame:\n%s", len(frames), body)
	}
	var late JobView
	if err := json.Unmarshal([]byte(frames[0][strings.Index(frames[0], "data: ")+len("data: "):]), &late); err != nil {
		t.Fatal(err)
	}
	if late.Status != StatusDone || late.Done != batch || late.Results != nil {
		t.Errorf("late frame = %+v, want the done view without results", late)
	}

	// A canceled job's stream ends with its canceled view.
	v, err = submitJob(ctx, c, testRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	var seen []JobView
	final, err := c.follow(ctx, c.first(), v.ID, func(v JobView) {
		if len(seen) == 0 {
			if err := c.cancel(ctx, c.first(), v.ID); err != nil {
				t.Error(err)
			}
		}
		seen = append(seen, v)
	})
	if err != nil {
		t.Fatal(err)
	}
	if end := seen[len(seen)-1]; end.Status != StatusCanceled || final.Status != StatusCanceled {
		t.Errorf("canceled job's stream ended with %s (job %s), want canceled", end.Status, final.Status)
	}
}

// TestGracefulDrain: draining stops admission (503 on submit and /healthz)
// while already-accepted jobs — running and queued — finish normally.
func TestGracefulDrain(t *testing.T) {
	started := make(chan struct{}, 4)
	gate := make(chan struct{})
	s, hs, c := startServer(t, Config{Workers: 1, QueueDepth: 4}, blockingSim(started, gate))

	a := rawSubmit(t, hs.URL, testRequest(1))
	waitStarted(t, started) // A running
	b := rawSubmit(t, hs.URL, testRequest(1))
	if a.StatusCode != http.StatusAccepted || b.StatusCode != http.StatusAccepted {
		t.Fatalf("pre-drain submissions = %d, %d, want 202", a.StatusCode, b.StatusCode)
	}

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(10 * time.Second) }()
	deadline := time.Now().Add(5 * time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}

	if resp := rawSubmit(t, hs.URL, testRequest(1)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining = %d, want 503", resp.StatusCode)
	}
	hresp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/healthz while draining = %d, want 503", hresp.StatusCode)
	}

	close(gate) // accepted jobs finish
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, id := range []string{"j1", "j2"} {
		v, err := c.job(ctx, c.first(), id)
		if err != nil {
			t.Fatal(err)
		}
		if v.Status != StatusDone {
			t.Errorf("job %s drained as %s, want done", id, v.Status)
		}
	}
}

// TestDrainTimeoutForceCancels: jobs that outlive the drain budget are
// force-canceled at the next simulation boundary and report canceled.
func TestDrainTimeoutForceCancels(t *testing.T) {
	started := make(chan struct{}, 1)
	gate := make(chan struct{}) // never closed: the job can only end by cancellation
	s, _, c := startServer(t, Config{Workers: 1}, blockingSim(started, gate))

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	v, err := submitJob(ctx, c, testRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	waitStarted(t, started)
	if err := s.Drain(50 * time.Millisecond); err == nil {
		t.Error("drain of a stuck job returned nil, want timeout error")
	}
	final, err := c.job(ctx, c.first(), v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusCanceled {
		t.Errorf("status = %s, want canceled", final.Status)
	}
}

// TestSubmitValidation: malformed requests are rejected with 400 before any
// work is queued.
func TestSubmitValidation(t *testing.T) {
	_, hs, _ := startServer(t, Config{Workers: 1, MaxBatch: 2}, nil)
	cases := []struct {
		name string
		req  SimRequest
	}{
		{"empty batch", SimRequest{Opt: sim.RunOpt{Instructions: 1}}},
		{"oversized batch", testRequest(3)},
		{"zero instructions", func() SimRequest { r := testRequest(1); r.Opt.Instructions = 0; return r }()},
		{"unknown workload", func() SimRequest { r := testRequest(1); r.Jobs[0].Workload = "nope"; return r }()},
		{"unknown variant", func() SimRequest { r := testRequest(1); r.Jobs[0].Variant = "nope"; return r }()},
		{"unknown l1", func() SimRequest { r := testRequest(1); r.Jobs[0].L1 = "nope"; return r }()},
		// Accepted, this would panic the job goroutine in the run loop's
		// Frac2M preallocation.
		{"samples out of range", func() SimRequest { r := testRequest(1); r.Opt.Samples = 1 << 50; return r }()},
	}
	for _, tc := range cases {
		if resp := rawSubmit(t, hs.URL, tc.req); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, resp.StatusCode)
		}
	}
}

// TestSubmitRejectsInvalidConfig: a machine configuration the simulator's
// constructors would panic on is answered with 400 and the typed error's text
// at submit, never reaching a job goroutine, and the same server then runs a
// valid batch to completion.
func TestSubmitRejectsInvalidConfig(t *testing.T) {
	_, hs, c := startServer(t, Config{Workers: 1}, nil)
	cases := []struct {
		field  string
		mutate func(*sim.Config)
	}{
		{"L2.Ways", func(cfg *sim.Config) { cfg.L2.Ways = 17 }},
		{"DRAM.RowBytes", func(cfg *sim.Config) { cfg.DRAM.RowBytes = 32 }},
		{"PhysBytes", func(cfg *sim.Config) { cfg.PhysBytes = 1 << 40 }},
		{"LLC.Sets", func(cfg *sim.Config) { cfg.LLC.Sets = 1 << 30 }},
		{"Replacement", func(cfg *sim.Config) { cfg.Replacement = 1 }},
		{"DRAM.Channels", func(cfg *sim.Config) { cfg.DRAM.Channels = 3 }},
	}
	for _, tc := range cases {
		cfg := sim.DefaultConfig()
		tc.mutate(&cfg)
		req := testRequest(1)
		req.Config = &cfg
		_, verr := validateSimRequest(req, 1)
		var ce *sim.ConfigError
		if !errors.As(verr, &ce) || ce.Field != tc.field {
			t.Fatalf("%s: validateSimRequest = %v, want a *sim.ConfigError for the field", tc.field, verr)
		}
		resp := rawSubmit(t, hs.URL, req)
		var body apiError
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body.Error, ce.Error()) {
			t.Errorf("%s: status %d, body %q; want 400 carrying %q", tc.field, resp.StatusCode, body.Error, ce.Error())
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	v, err := submitJob(ctx, c, testRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	v, err = c.follow(ctx, c.first(), v.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusDone || len(v.Results) != 1 {
		t.Fatalf("valid batch after the rejections: status %s, %d results (%s)", v.Status, len(v.Results), v.Error)
	}
}
