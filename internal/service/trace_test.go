package service

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/dtrace"
)

// runTraced submits req through c under a context carrying rec and follows
// the job to completion, so every server-side span parents under the client's
// submit span.
func runTraced(t *testing.T, c *Client, rec *dtrace.Recorder, req SimRequest) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ctx = dtrace.NewContext(ctx, rec, dtrace.SpanContext{})
	v, err := submitJob(ctx, c, req)
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.follow(ctx, c.first(), v.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusDone {
		t.Fatalf("job %s: %s (%s)", final.ID, final.Status, final.Error)
	}
}

// spanNames collects the set of span names in a trace.
func spanNames(spans []dtrace.SpanData, trace string) map[string]int {
	names := map[string]int{}
	for _, d := range spans {
		if d.TraceID == trace {
			names[d.Name]++
		}
	}
	return names
}

// TestTraceSingleNode follows one traced batch through a single daemon: the
// client's submit span must parent the daemon's job tree (job.run with
// job.queue_wait and one sim span per unit) into a single connected trace.
func TestTraceSingleNode(t *testing.T) {
	rec := dtrace.NewRecorder("daemon", 256)
	_, _, c := startServer(t, Config{Workers: 2, Flight: rec}, fixedSim(telemetryFixture()))
	client := dtrace.NewRecorder("pexp", 64)
	runTraced(t, c, client, testRequest(2))

	local := client.Snapshot(dtrace.Filter{})
	if len(local) != 1 || local[0].Name != "submit" {
		t.Fatalf("client recorded %+v, want exactly the submit span", local)
	}
	trace := local[0].TraceID

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	remote, err := c.Flight(ctx, trace)
	if err != nil {
		t.Fatal(err)
	}
	spans := dtrace.Stitch(local, remote)
	st := dtrace.TreeOf(trace, spans)
	if !st.Connected() {
		t.Fatalf("trace %s is not a single connected tree: %+v\nspans: %+v", trace, st, spans)
	}
	if len(st.Nodes) != 2 || st.Nodes[0] != "daemon" || st.Nodes[1] != "pexp" {
		t.Fatalf("trace nodes = %v, want [daemon pexp]", st.Nodes)
	}
	names := spanNames(spans, trace)
	for _, want := range []string{"job.run", "job.queue_wait"} {
		if names[want] != 1 {
			t.Fatalf("trace has %d %q spans, want 1 (all: %v)", names[want], want, names)
		}
	}
	if names["sim"] != 2 {
		t.Fatalf("trace has %d sim spans, want one per unit = 2 (all: %v)", names["sim"], names)
	}
	// The queue-wait span is backdated to admission: it must start no later
	// than job.run and end within it.
	var run, qw dtrace.SpanData
	for _, d := range spans {
		switch d.Name {
		case "job.run":
			run = d
		case "job.queue_wait":
			qw = d
		}
	}
	if qw.StartNS > run.StartNS || qw.EndNS > run.EndNS {
		t.Fatalf("queue_wait [%d,%d] does not nest at the front of job.run [%d,%d]",
			qw.StartNS, qw.EndNS, run.StartNS, run.EndNS)
	}
}

// TestTraceUntracedRequest: a request without a traceparent header must still
// work and, with the recorder enabled, record a self-rooted job tree.
func TestTraceUntracedRequest(t *testing.T) {
	rec := dtrace.NewRecorder("daemon", 256)
	_, _, c := startServer(t, Config{Workers: 1, Flight: rec}, fixedSim(telemetryFixture()))
	runOne(t, c, testRequest(1))

	spans := rec.Snapshot(dtrace.Filter{})
	traces := dtrace.TraceIDs(spans)
	if len(traces) != 1 {
		t.Fatalf("untraced request produced %d traces, want 1 fresh one", len(traces))
	}
	st := dtrace.TreeOf(traces[0], spans)
	if !st.Connected() {
		t.Fatalf("untraced request's spans must self-root into one tree, got %+v", st)
	}
}

// TestFlightEndpoint exercises GET /debug/flight: disabled daemons 404, and
// the trace/errors/limit filters select the right spans.
func TestFlightEndpoint(t *testing.T) {
	t.Run("disabled", func(t *testing.T) {
		_, _, c := startServer(t, Config{Workers: 1}, fixedSim(telemetryFixture()))
		_, err := c.Flight(context.Background(), "")
		if err == nil || !strings.Contains(err.Error(), "404") {
			t.Fatalf("Flight on a recorder-less daemon = %v, want HTTP 404", err)
		}
	})

	rec := dtrace.NewRecorder("daemon", 64)
	_, hs, c := startServer(t, Config{Workers: 1, Flight: rec}, fixedSim(telemetryFixture()))
	ok := rec.StartSpan(dtrace.SpanContext{}, "fine")
	ok.End()
	bad := rec.StartSpan(dtrace.SpanContext{}, "broken")
	bad.Fail(fmt.Errorf("boom"))
	bad.End()

	t.Run("all", func(t *testing.T) {
		spans, err := c.Flight(context.Background(), "")
		if err != nil {
			t.Fatal(err)
		}
		if len(spans) != 2 {
			t.Fatalf("got %d spans, want 2", len(spans))
		}
	})
	t.Run("by trace", func(t *testing.T) {
		spans, err := c.Flight(context.Background(), ok.Context().Trace.String())
		if err != nil {
			t.Fatal(err)
		}
		if len(spans) != 1 || spans[0].Name != "fine" {
			t.Fatalf("trace filter returned %+v, want just the fine span", spans)
		}
	})
	t.Run("errors only", func(t *testing.T) {
		resp, err := http.Get(hs.URL + "/debug/flight?errors=1")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if got := resp.Header.Get("Content-Type"); got != "application/jsonl" {
			t.Fatalf("Content-Type = %q, want application/jsonl", got)
		}
		spans, err := dtrace.ReadJSONL(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if len(spans) != 1 || spans[0].Name != "broken" || !spans[0].Error {
			t.Fatalf("errors filter returned %+v, want just the failed span", spans)
		}
	})
	t.Run("limit", func(t *testing.T) {
		resp, err := http.Get(hs.URL + "/debug/flight?limit=1")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		spans, err := dtrace.ReadJSONL(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if len(spans) != 1 || spans[0].Name != "broken" {
			t.Fatalf("limit=1 returned %+v, want the newest span", spans)
		}
	})
	t.Run("bad limit", func(t *testing.T) {
		resp, err := http.Get(hs.URL + "/debug/flight?limit=bogus")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("limit=bogus answered %d, want 400", resp.StatusCode)
		}
	})
}

// TestClusterTraceProxy follows one traced simulation through a proxied
// cross-node execution: submitted to the non-owner, the unit must travel
// proxy.exec -> cluster.exec on the owner, and the
// stitched spans from the client and both nodes must form one connected tree
// covering all three parties.
func TestClusterTraceProxy(t *testing.T) {
	recs := make([]*dtrace.Recorder, 2)
	nodes := startCluster(t, 2, fixedSim(telemetryFixture()), func(i int, cfg *Config) {
		recs[i] = dtrace.NewRecorder(fmt.Sprintf("node%d", i), 256)
		cfg.Flight = recs[i]
	})
	req := victimOwnedRequest(t, nodes, 1, 1)
	client := dtrace.NewRecorder("pexp", 64)
	runTraced(t, nodes[0].c, client, req)

	local := client.Snapshot(dtrace.Filter{})
	if len(local) == 0 {
		t.Fatal("client recorded no spans")
	}
	trace := local[0].TraceID
	spans := dtrace.Stitch(local, recs[0].Snapshot(dtrace.Filter{}), recs[1].Snapshot(dtrace.Filter{}))
	st := dtrace.TreeOf(trace, spans)
	if !st.Connected() {
		t.Fatalf("cross-node trace is not one connected tree: %+v\nspans: %+v", st, spans)
	}
	if len(st.Nodes) != 3 {
		t.Fatalf("trace covers nodes %v, want the client and both daemons", st.Nodes)
	}
	names := spanNames(spans, trace)
	for _, want := range []string{"submit", "job.run", "sim", "proxy.exec", "cluster.exec", "sim.run"} {
		if names[want] == 0 {
			t.Fatalf("trace is missing a %q span (all: %v)", want, names)
		}
	}
	// The hop crossed onto the owner: cluster.exec must be reported by node1.
	for _, d := range spans {
		if d.TraceID == trace && d.Name == "cluster.exec" && d.Node != "node1" {
			t.Fatalf("cluster.exec reported by %q, want the owner node1", d.Node)
		}
	}
}

// TestClusterTraceRemoteHit: once the owner has the entry cached, a second
// traced request through the non-owner is one proxied call — the owner's
// cluster.exec span joins the requester's trace and answers from its store,
// so no simulation runs.
func TestClusterTraceRemoteHit(t *testing.T) {
	recs := make([]*dtrace.Recorder, 2)
	nodes := startCluster(t, 2, fixedSim(telemetryFixture()), func(i int, cfg *Config) {
		recs[i] = dtrace.NewRecorder(fmt.Sprintf("node%d", i), 256)
		cfg.Flight = recs[i]
	})
	req := victimOwnedRequest(t, nodes, 1, 1)
	// Warm the owner's cache with an untraced run on the owner itself.
	runOne(t, nodes[1].c, req)

	client := dtrace.NewRecorder("pexp", 64)
	runTraced(t, nodes[0].c, client, req)
	trace := client.Snapshot(dtrace.Filter{})[0].TraceID
	spans := dtrace.Stitch(client.Snapshot(dtrace.Filter{}),
		recs[0].Snapshot(dtrace.Filter{}), recs[1].Snapshot(dtrace.Filter{}))
	st := dtrace.TreeOf(trace, spans)
	if !st.Connected() {
		t.Fatalf("remote-hit trace is not connected: %+v", st)
	}
	names := spanNames(spans, trace)
	if names["proxy.exec"] != 1 || names["cluster.exec"] != 1 {
		t.Fatalf("remote hit should pair one proxy.exec with the owner's cluster.exec, got %v", names)
	}
	if names["sim.run"] != 0 {
		t.Fatalf("remote hit must not run a simulation, got %v", names)
	}
}
