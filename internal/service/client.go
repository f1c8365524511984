package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/dtrace"
	"repro/internal/experiments"
	"repro/internal/progress"
	"repro/internal/sim"
)

// Client talks to one or more psimd daemons. It implements
// experiments.BatchRunner, so `pexp -server URL[,URL...]` routes every
// figure's single-core batches through the service — the existing experiment
// harness doubles as the daemon's traffic generator.
//
// RunBatch is the only call that spans endpoints: it rotates batches across
// them and fails a batch over to the next one (see RunBatch). Submit, Job,
// Cancel, Events, Follow and Flight address the first endpoint.
type Client struct {
	// HTTPClient defaults to a client without timeout (jobs are
	// long-running; cancellation comes from the context).
	HTTPClient *http.Client

	endpoints []string
	next      atomic.Uint64 // rotation: each batch starts one endpoint later
	// backoffBase is the first retry cycle's nominal wait (defaultBackoff
	// when zero); tests shorten it.
	backoffBase time.Duration
}

// retries bounds a batch's retry cycles: after the first pass over the
// endpoints fails everywhere, at most retries more passes are made, so a
// batch makes at most len(endpoints)·(retries+1) submissions.
const retries = 4

// defaultBackoff is the nominal wait after the first failed cycle; each
// further cycle doubles it.
const defaultBackoff = 100 * time.Millisecond

var errNoEndpoints = errors.New("psimd: no endpoints")

// NewClient builds a client over the daemons at endpoints. Each entry is
// trimmed of spaces and trailing slashes and empty entries are dropped, so
// a comma-separated -server value can be passed split as it is.
func NewClient(endpoints ...string) *Client {
	c := &Client{HTTPClient: &http.Client{}}
	for _, e := range endpoints {
		if e = strings.TrimRight(strings.TrimSpace(e), "/"); e != "" {
			c.endpoints = append(c.endpoints, e)
		}
	}
	return c
}

// Endpoints returns the daemons' base URLs in rotation order.
func (c *Client) Endpoints() []string { return slices.Clone(c.endpoints) }

// first is the endpoint the single-job calls address ("" when there is
// none, which fails each request before any I/O).
func (c *Client) first() string {
	if len(c.endpoints) == 0 {
		return ""
	}
	return c.endpoints[0]
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return &http.Client{}
}

// httpStatusError is a non-2xx response, typed so retry policy can
// distinguish transient statuses (429, 5xx) from terminal ones (4xx).
type httpStatusError struct {
	status int
	msg    string
}

func (e *httpStatusError) Error() string { return e.msg }

// errStreamEnded marks an event stream that closed without a terminal event —
// the serving daemon died mid-job, so the work is retryable elsewhere.
var errStreamEnded = errors.New("psimd: event stream ended before job finished")

// transientErr reports whether err is worth retrying: connection-level
// failures, daemon-side 5xx/429, or a stream that died mid-job. Context
// expiry and application errors (4xx) are terminal.
func transientErr(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var he *httpStatusError
	if errors.As(err, &he) {
		return he.status == http.StatusTooManyRequests || he.status >= 500
	}
	var ue *url.Error
	if errors.As(err, &ue) {
		return true // dial failure: endpoint unreachable
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true // read/stream failure: endpoint died mid-response
	}
	return errors.Is(err, errStreamEnded) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF)
}

// backoff is the wait after failed cycle n (0-based): backoffBase·2ⁿ,
// jittered to 50–100% of that so clients retrying a recovering daemon
// spread out.
func (c *Client) backoff(n int) time.Duration {
	d := c.backoffBase
	if d <= 0 {
		d = defaultBackoff
	}
	half := (d << uint(n)) / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// sleep waits d, bounded by ctx.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// decodeError extracts the server's JSON error message.
func decodeError(resp *http.Response) error {
	var e apiError
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return &httpStatusError{resp.StatusCode, fmt.Sprintf("psimd: %s (HTTP %d)", e.Error, resp.StatusCode)}
	}
	return &httpStatusError{resp.StatusCode, fmt.Sprintf("psimd: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))}
}

// Submit posts one batch to the first endpoint, once: retrying is
// RunBatch's job.
func (c *Client) Submit(ctx context.Context, req SimRequest) (JobView, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return JobView{}, err
	}
	v, _, err := c.submit(ctx, c.first(), body)
	return v, err
}

// submit performs one POST /v1/sims to base. retryAfter is non-zero when
// the daemon rejected with explicit backpressure advice (429 with a
// Retry-After hint).
func (c *Client) submit(ctx context.Context, base string, body []byte) (v JobView, retryAfter time.Duration, err error) {
	// Each attempt is its own span; its context rides the traceparent header,
	// so the daemon's job spans parent under the attempt that landed.
	sctx, sp := dtrace.Start(ctx, "submit")
	sp.Annotate(base)
	defer func() {
		if sp != nil {
			sp.Fail(err)
			sp.End()
		}
	}()
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/sims", bytes.NewReader(body))
	if err != nil {
		return JobView{}, 0, err
	}
	hr.Header.Set("Content-Type", "application/json")
	dtrace.Inject(sctx, hr.Header)
	resp, err := c.httpClient().Do(hr)
	if err != nil {
		return JobView{}, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		if ra, aerr := strconv.Atoi(resp.Header.Get("Retry-After")); aerr == nil && ra > 0 {
			retryAfter = time.Duration(ra) * time.Second
		}
	}
	if resp.StatusCode != http.StatusAccepted {
		return JobView{}, retryAfter, decodeError(resp)
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return JobView{}, 0, fmt.Errorf("psimd: decode submit response: %w", err)
	}
	return v, 0, nil
}

// Job fetches a job's current view (including results once done).
func (c *Client) Job(ctx context.Context, id string) (JobView, error) {
	return c.job(ctx, c.first(), id)
}

func (c *Client) job(ctx context.Context, base, id string) (JobView, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id, nil)
	if err != nil {
		return JobView{}, err
	}
	resp, err := c.httpClient().Do(hr)
	if err != nil {
		return JobView{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return JobView{}, decodeError(resp)
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return JobView{}, fmt.Errorf("psimd: decode job: %w", err)
	}
	return v, nil
}

// Cancel requests cancellation of a queued or running job.
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.cancel(ctx, c.first(), id)
}

func (c *Client) cancel(ctx context.Context, base, id string) error {
	hr, err := http.NewRequestWithContext(ctx, http.MethodDelete, base+"/v1/jobs/"+id, nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(hr)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return decodeError(resp)
	}
	return nil
}

// Flight fetches the daemon's span flight-recorder dump (GET /debug/flight),
// optionally filtered to one trace ID. A daemon running without a recorder
// answers 404, which is returned as an error.
func (c *Client) Flight(ctx context.Context, trace string) ([]dtrace.SpanData, error) {
	u := c.first() + "/debug/flight"
	if trace != "" {
		u += "?trace=" + url.QueryEscape(trace)
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	return dtrace.ReadJSONL(resp.Body)
}

// Events subscribes to a job's SSE stream, invoking fn for every event until
// the terminal one (after which it returns nil) or until ctx/stream failure.
// Every subscription replays the job's history from seq 1.
func (c *Client) Events(ctx context.Context, id string, fn func(Event)) error {
	return c.events(ctx, c.first(), id, fn)
}

func (c *Client) events(ctx context.Context, base, id string, fn func(Event)) error {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	hr.Header.Set("Accept", "text/event-stream")
	resp, err := c.httpClient().Do(hr)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data: "):
			data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "" && len(data) > 0:
			var e Event
			if err := json.Unmarshal(data, &e); err != nil {
				return fmt.Errorf("psimd: bad event: %w", err)
			}
			data = nil
			fn(e)
			if e.Terminal() {
				return nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("psimd: event stream: %w", err)
	}
	return errStreamEnded
}

// Follow streams a job to completion and returns the final view (with
// results for a done job). fn, which may be nil, observes each event in
// order. A stream that fails before the terminal event is an error, unless
// the job turns out to have finished meanwhile.
func (c *Client) Follow(ctx context.Context, id string, fn func(Event)) (JobView, error) {
	return c.follow(ctx, c.first(), id, fn)
}

func (c *Client) follow(ctx context.Context, base, id string, fn func(Event)) (JobView, error) {
	if fn == nil {
		fn = func(Event) {}
	}
	if err := c.events(ctx, base, id, fn); err != nil {
		if ctx.Err() != nil {
			return JobView{}, ctx.Err()
		}
		if v, jerr := c.job(ctx, base, id); jerr == nil && v.Status.Terminal() {
			return v, nil
		}
		return JobView{}, err
	}
	return c.job(ctx, base, id)
}

// buildSimRequest converts an experiment batch into the wire form,
// rejecting workloads that cannot run remotely.
func buildSimRequest(ctx context.Context, cfg sim.Config, jobs []experiments.Job, opt sim.RunOpt) (SimRequest, error) {
	req := SimRequest{Config: &cfg, Opt: opt, Jobs: make([]SimSpec, len(jobs))}
	if d, ok := ctx.Deadline(); ok {
		if ms := time.Until(d).Milliseconds(); ms > 0 {
			req.TimeoutMS = ms
		}
	}
	for i, j := range jobs {
		if j.Workload.ContentID != "" {
			return SimRequest{}, fmt.Errorf("psimd: workload %q is content-addressed (a trace replay) and cannot run remotely", j.Workload.Name)
		}
		req.Jobs[i] = SimSpec{
			Workload: j.Workload.Name,
			Base:     j.Spec.Base,
			Variant:  j.Spec.Variant.String(),
			L1:       string(j.Spec.L1),
		}
	}
	return req, nil
}

// batchProgress carries tracker state across failover attempts: a batch
// resubmitted to a second endpoint restarts its Done count at zero, and the
// high-water mark here keeps the local tracker monotonic (no double steps).
type batchProgress struct {
	done, hits int
}

// RunBatch implements experiments.BatchRunner: it ships the batch to a
// daemon, mirrors its progress events into the local tracker, and returns
// results in job order. Only catalogue workloads can run remotely — a
// trace-file replay's identity is its contents, which the daemon does not
// have.
//
// RunBatch holds the batch's one retry loop. Each batch starts one endpoint
// further along than the previous one. A transient failure — endpoint
// unreachable, 5xx, 429, job lost mid-flight — moves the batch to the next
// endpoint at once. Only after a full cycle of failures does it wait: the
// smallest Retry-After hint when every endpoint answered 429 with one,
// otherwise a jittered exponential backoff. After retries further cycles it
// gives up, so a batch makes at most len(endpoints)·(retries+1) submissions.
// The cluster's shared cache makes resubmission cheap: units a dead node
// already finished were cached on their owners and replay as hits.
func (c *Client) RunBatch(ctx context.Context, cfg sim.Config, jobs []experiments.Job, opt sim.RunOpt, tr *progress.Tracker) (res []sim.Result, err error) {
	n := len(c.endpoints)
	if n == 0 {
		return nil, errNoEndpoints
	}
	req, err := buildSimRequest(ctx, cfg, jobs, opt)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	ctx, sp := dtrace.Start(ctx, "batch")
	if sp != nil {
		sp.Annotate(fmt.Sprintf("%d jobs", len(jobs)))
		defer func() {
			sp.Fail(err)
			sp.End()
		}()
	}
	bp := &batchProgress{}
	start := int(c.next.Add(1)-1) % n
	var hint time.Duration // smallest Retry-After hint of the current cycle
	saturated := true      // every endpoint of the current cycle sent a hint
	for attempt := 0; ; attempt++ {
		res, retryAfter, err := c.runOn(ctx, c.endpoints[(start+attempt)%n], body, len(jobs), tr, bp)
		if err == nil {
			return res, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if !transientErr(err) {
			return nil, err
		}
		if retryAfter > 0 && (hint == 0 || retryAfter < hint) {
			hint = retryAfter
		}
		saturated = saturated && retryAfter > 0
		if (attempt+1)%n != 0 {
			continue // untried endpoints remain in this cycle
		}
		cycle := (attempt + 1) / n
		if cycle > retries {
			return nil, fmt.Errorf("psimd: batch failed on all %d endpoint(s): %w", n, err)
		}
		wait := c.backoff(cycle - 1)
		if saturated {
			wait = hint
		}
		if serr := sleep(ctx, wait); serr != nil {
			return nil, serr
		}
		hint, saturated = 0, true
	}
}

// runOn submits the batch to base and follows it to completion, stepping tr
// through bp so retried batches never double-count progress. retryAfter is
// the daemon's backpressure hint when it refused the batch.
func (c *Client) runOn(ctx context.Context, base string, body []byte, njobs int, tr *progress.Tracker, bp *batchProgress) (res []sim.Result, retryAfter time.Duration, err error) {
	sub, retryAfter, err := c.submit(ctx, base, body)
	if err != nil {
		return nil, retryAfter, err
	}
	step := func(e Event) {
		if tr == nil || e.Done <= bp.done {
			return
		}
		hits := e.Hits - bp.hits
		for i := 0; i < e.Done-bp.done; i++ {
			tr.Step(i < hits)
		}
		bp.done, bp.hits = e.Done, e.Hits
	}
	final, err := c.follow(ctx, base, sub.ID, step)
	if err != nil {
		// Leave no orphaned work behind: a client giving up cancels its job.
		if ctx.Err() != nil {
			cctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			_ = c.cancel(cctx, base, sub.ID)
			cancel()
		}
		return nil, 0, err
	}
	switch final.Status {
	case StatusDone:
		if len(final.Results) != njobs {
			return nil, 0, fmt.Errorf("psimd: job %s returned %d results for %d jobs", final.ID, len(final.Results), njobs)
		}
		return final.Results, 0, nil
	case StatusCanceled:
		return nil, 0, fmt.Errorf("psimd: job %s canceled", final.ID)
	default:
		return nil, 0, fmt.Errorf("psimd: job %s %s: %s", final.ID, final.Status, final.Error)
	}
}
