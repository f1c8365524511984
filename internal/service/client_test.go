package service

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// testJobs builds n identical remote-runnable experiment jobs.
func testJobs(t *testing.T, n int) []experiments.Job {
	t.Helper()
	ws, err := experiments.WorkloadsByName([]string{"milc"})
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]experiments.Job, n)
	for i := range jobs {
		jobs[i] = experiments.Job{Workload: ws[0], Spec: sim.PrefSpec{Base: "spp"}}
	}
	return jobs
}

// flakyServer wraps a real daemon behind a handler that fails the first n
// submissions with the given status (and the Retry-After header, when
// retryAfter is set) before letting traffic through.
func flakyServer(t *testing.T, n int32, status int, retryAfter string, fn simFunc) (*httptest.Server, *atomic.Int32) {
	t.Helper()
	s := New(Config{Workers: 1})
	if fn != nil {
		s.simFn = fn
	}
	s.Start()
	t.Cleanup(s.Close)
	inner := s.Handler()
	var failed atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/sims") && failed.Load() < n {
			failed.Add(1)
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			http.Error(w, "transient", status)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(hs.Close)
	return hs, &failed
}

// testOpt is the shortest run options a remote batch accepts.
var testOpt = sim.RunOpt{Warmup: 1, Instructions: 1, Seed: 1, Samples: 1}

// checkFixtureResults fails unless res holds n results computed by
// fixedSim(telemetryFixture()).
func checkFixtureResults(t *testing.T, res []sim.Result, n int) {
	t.Helper()
	if len(res) != n {
		t.Fatalf("got %d results, want %d", len(res), n)
	}
	for i, r := range res {
		if r.IPC != telemetryFixture().IPC {
			t.Fatalf("result %d = %+v, not from the fixture endpoint", i, r)
		}
	}
}

// TestSubmitRetriesTransient: a submission that hits transient 5xx answers is
// retried with backoff and succeeds once the endpoint recovers.
func TestSubmitRetriesTransient(t *testing.T) {
	hs, failed := flakyServer(t, 2, http.StatusServiceUnavailable, "", fixedSim(telemetryFixture()))
	c := NewClient(hs.URL)
	c.backoffBase = time.Millisecond

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := c.RunBatch(ctx, sim.DefaultConfig(), testJobs(t, 1), testOpt, nil)
	if err != nil {
		t.Fatalf("RunBatch after transient failures: %v", err)
	}
	if got := failed.Load(); got != 2 {
		t.Fatalf("flaky endpoint served %d failures, want 2", got)
	}
	checkFixtureResults(t, res, 1)
}

// TestSubmitTerminalNoRetry: a 4xx rejection (other than 429 backpressure) is
// a caller error — retrying cannot fix it, so the client must not.
func TestSubmitTerminalNoRetry(t *testing.T) {
	var requests atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.Error(w, "bad request", http.StatusBadRequest)
	}))
	t.Cleanup(hs.Close)
	c := NewClient(hs.URL)
	c.backoffBase = time.Millisecond

	if _, err := c.RunBatch(context.Background(), sim.DefaultConfig(), testJobs(t, 1), testOpt, nil); err == nil {
		t.Fatal("RunBatch succeeded against a 400 endpoint")
	}
	if got := requests.Load(); got != 1 {
		t.Fatalf("terminal 400 was retried: %d requests, want 1", got)
	}
}

// TestClientRetryBudget: against endpoints that only ever answer 503, a
// batch makes one submission per endpoint per cycle, for the first cycle and
// the retries that follow it, and then gives up.
func TestClientRetryBudget(t *testing.T) {
	for _, n := range []int{1, 3} {
		var urls []string
		var counts []*atomic.Int32
		for i := 0; i < n; i++ {
			hs, posts := flakyServer(t, math.MaxInt32, http.StatusServiceUnavailable, "", nil)
			urls = append(urls, hs.URL)
			counts = append(counts, posts)
		}
		c := NewClient(urls...)
		c.backoffBase = time.Millisecond
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_, err := c.RunBatch(ctx, sim.DefaultConfig(), testJobs(t, 1), testOpt, nil)
		cancel()
		if err == nil {
			t.Fatalf("%d endpoint(s): RunBatch succeeded against 503-only endpoints", n)
		}
		total := int32(0)
		for i, p := range counts {
			if got := p.Load(); got != retries+1 {
				t.Errorf("%d endpoint(s): endpoint %d got %d POSTs, want %d", n, i, got, retries+1)
			}
			total += p.Load()
		}
		if want := int32(n * (retries + 1)); total != want {
			t.Errorf("%d endpoint(s): %d POSTs in all, want %d", n, total, want)
		}
	}
}

// TestClientSkipsSaturatedEndpoint: a 429 is a reason to try the next
// endpoint, not to wait: with a saturated endpoint first and a healthy one
// second, the batch lands on the healthy one without waiting out the
// Retry-After hint.
func TestClientSkipsSaturatedEndpoint(t *testing.T) {
	busy, posts := flakyServer(t, math.MaxInt32, http.StatusTooManyRequests, "1", nil)
	_, hs, _ := startServer(t, Config{Workers: 1}, fixedSim(telemetryFixture()))
	c := NewClient(busy.URL, hs.URL)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	res, err := c.RunBatch(ctx, sim.DefaultConfig(), testJobs(t, 2), testOpt, nil)
	if err != nil {
		t.Fatalf("RunBatch with a saturated first endpoint: %v", err)
	}
	if took := time.Since(start); took >= time.Second {
		t.Fatalf("batch took %v, want under the 1s Retry-After hint", took)
	}
	if got := posts.Load(); got != 1 {
		t.Errorf("saturated endpoint got %d POSTs, want 1", got)
	}
	checkFixtureResults(t, res, 2)
}

// TestClientWaitsSmallestRetryAfter: when every endpoint of a cycle answers
// 429, the batch waits the smallest Retry-After hint before the next cycle.
func TestClientWaitsSmallestRetryAfter(t *testing.T) {
	var urls []string
	for _, hint := range []string{"2", "1"} {
		hs, _ := flakyServer(t, 1, http.StatusTooManyRequests, hint, fixedSim(telemetryFixture()))
		urls = append(urls, hs.URL)
	}
	c := NewClient(urls...)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	res, err := c.RunBatch(ctx, sim.DefaultConfig(), testJobs(t, 1), testOpt, nil)
	if err != nil {
		t.Fatalf("RunBatch over two saturated endpoints: %v", err)
	}
	if took := time.Since(start); took < time.Second || took >= 2*time.Second {
		t.Fatalf("batch took %v, want the smallest hint: at least 1s and under 2s", took)
	}
	checkFixtureResults(t, res, 1)
}

// TestClientSkipsDeadEndpoint: with one endpoint refusing connections,
// the batch fails over to the next endpoint in the rotation and completes.
func TestClientSkipsDeadEndpoint(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // nothing listens here any more

	_, hs, _ := startServer(t, Config{Workers: 1}, fixedSim(telemetryFixture()))
	c := NewClient(deadURL, hs.URL)
	c.backoffBase = time.Millisecond

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	res, err := c.RunBatch(ctx, sim.DefaultConfig(), testJobs(t, 2), testOpt, nil)
	if err != nil {
		t.Fatalf("RunBatch with a dead first endpoint: %v", err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d results, want 2", len(res))
	}
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestClientNoEndpoints: an endpoint list with nothing in it is a
// configuration error that RunBatch reports without any I/O; entries are
// cleaned of spaces and trailing slashes.
func TestClientNoEndpoints(t *testing.T) {
	c := NewClient(strings.Split(" , ,", ",")...)
	if got := c.Endpoints(); len(got) != 0 {
		t.Fatalf("Endpoints = %v, want none", got)
	}
	var requests atomic.Int32
	c.HTTPClient = &http.Client{Transport: roundTripFunc(func(*http.Request) (*http.Response, error) {
		requests.Add(1)
		return nil, errors.New("no request expected")
	})}
	if _, err := c.RunBatch(context.Background(), sim.DefaultConfig(), testJobs(t, 1), testOpt, nil); err == nil {
		t.Fatal("RunBatch accepted an empty endpoint list")
	}
	if got := requests.Load(); got != 0 {
		t.Fatalf("RunBatch without endpoints made %d requests, want 0", got)
	}
	want := []string{"http://a:1", "http://b:2"}
	got := NewClient(strings.Split("http://a:1/, http://b:2", ",")...).Endpoints()
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Endpoints = %v, want %v", got, want)
	}
}

// TestClientMidBatchFailover: the endpoint running a batch dies after
// accepting it — its event stream cuts out mid-flight. The batch must be
// resubmitted to the surviving endpoint and complete there.
func TestClientMidBatchFailover(t *testing.T) {
	started := make(chan struct{}, 4)
	gate := make(chan struct{})
	defer close(gate)
	// Endpoint A accepts the batch and wedges; it will be killed abruptly at
	// the HTTP layer (the Server object stays alive for orderly cleanup).
	sa := New(Config{Workers: 1})
	sa.simFn = blockingSim(started, gate)
	sa.Start()
	t.Cleanup(sa.Close)
	hsA := httptest.NewServer(sa.Handler())
	killed := false
	t.Cleanup(func() {
		if !killed {
			hsA.Close()
		}
	})

	_, hsB, _ := startServer(t, Config{Workers: 1}, fixedSim(telemetryFixture()))

	c := NewClient(hsA.URL, hsB.URL)
	c.backoffBase = time.Millisecond

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	type out struct {
		res []sim.Result
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := c.RunBatch(ctx, sim.DefaultConfig(), testJobs(t, 2), testOpt, nil)
		done <- out{res, err}
	}()

	waitStarted(t, started) // A is mid-simulation with the client following it
	hsA.CloseClientConnections()
	hsA.Close()
	killed = true

	select {
	case o := <-done:
		if o.err != nil {
			t.Fatalf("batch did not survive endpoint death: %v", o.err)
		}
		if len(o.res) != 2 {
			t.Fatalf("got %d results, want 2", len(o.res))
		}
		for i, r := range o.res {
			if r.IPC != telemetryFixture().IPC {
				t.Fatalf("result %d = %+v, not from the surviving endpoint", i, r)
			}
		}
	case <-time.After(20 * time.Second):
		t.Fatal("failover batch never completed")
	}
}
