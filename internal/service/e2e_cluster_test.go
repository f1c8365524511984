package service

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/dtrace"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/trace"
)

func clusterMisses(nodes []*clusterNode) uint64 {
	var n uint64
	for _, cn := range nodes {
		n += cn.store.Stats().Misses
	}
	return n
}

func clusterRemoteHits(nodes []*clusterNode) uint64 {
	var n uint64
	for _, cn := range nodes {
		n += cn.srv.Cluster().Stats().RemoteHits
	}
	return n
}

// TestE2ECluster: a figure produced against a 3-node cluster is byte-identical
// to the locally simulated figure, every unit is executed exactly once across
// the whole cluster (owner routing), and a repeat run replays entirely from
// the distributed cache — units the serving node does not own come back as
// remote hits, answered from the owner's store through the proxy.
func TestE2ECluster(t *testing.T) {
	nodes := startCluster(t, 3, nil, func(i int, cfg *Config) {
		cfg.Workers = 4
		cfg.SimParallelism = 8
	})

	ws, err := experiments.WorkloadsByName([]string{"milc", "soplex"})
	if err != nil {
		t.Fatal(err)
	}
	o := experiments.DefaultOptions()
	o.Warmup = 20_000
	o.Instructions = 80_000
	o.Parallelism = 4
	o.Workloads = ws

	// Ground truth: simulate locally, no cache, no cluster.
	local, err := experiments.Figure8(o)
	if err != nil {
		t.Fatal(err)
	}

	endpoints := make([]string, len(nodes))
	for i, cn := range nodes {
		endpoints[i] = cn.hs.URL
	}
	remote := o
	remote.Remote = NewClient(endpoints...)

	first, err := experiments.Figure8(remote)
	if err != nil {
		t.Fatal(err)
	}
	if first.Render() != local.Render() {
		t.Fatalf("cluster figure differs from local:\n--- local ---\n%s--- cluster ---\n%s",
			local.Render(), first.Render())
	}
	simulated := clusterMisses(nodes)
	if simulated == 0 {
		t.Fatal("first cluster run executed no simulations")
	}

	// A second run lands on the next endpoint in the rotation and must be
	// served wholly from the distributed cache: zero additional executions
	// anywhere, with the units this endpoint does not own answered from
	// their owners' stores.
	second, err := experiments.Figure8(remote)
	if err != nil {
		t.Fatal(err)
	}
	if second.Render() != local.Render() {
		t.Fatal("second cluster run produced a different figure")
	}
	if got := clusterMisses(nodes); got != simulated {
		t.Errorf("repeat run executed %d duplicate simulations", got-simulated)
	}
	if clusterRemoteHits(nodes) == 0 {
		t.Error("repeat run on a different endpoint produced no warm cross-node hits")
	}
}

// TestE2EClusterNodeFailure: a node that owns part of the figure dies in the
// middle of a batch. Its work fails over to the node serving the client, and
// the figure still comes out byte-identical — a dead node costs duplicated
// work, never correctness or availability.
func TestE2EClusterNodeFailure(t *testing.T) {
	// Non-client nodes simulate slowly so the kill reliably lands mid-batch;
	// slowSim is the real simulator plus a delay, so results are unchanged.
	slowSim := func(ctx context.Context, cfg sim.Config, spec sim.PrefSpec, w trace.Workload, opt sim.RunOpt) (sim.Result, error) {
		select {
		case <-time.After(20 * time.Millisecond):
		case <-ctx.Done():
			return sim.Result{}, ctx.Err()
		}
		return sim.RunContext(ctx, cfg, spec, w, opt)
	}
	nodes := startCluster(t, 3, slowSim, func(i int, cfg *Config) {
		cfg.Workers = 4
		cfg.SimParallelism = 4
	})

	ws, err := experiments.WorkloadsByName([]string{"milc", "soplex"})
	if err != nil {
		t.Fatal(err)
	}
	o := experiments.DefaultOptions()
	o.Warmup = 20_000
	o.Instructions = 80_000
	o.Parallelism = 4
	o.Workloads = ws

	local, err := experiments.Figure8(o)
	if err != nil {
		t.Fatal(err)
	}

	// The client talks only to node 0; nodes 1 and 2 receive proxied work.
	remote := o
	remote.Remote = NewClient(nodes[0].hs.URL)

	type out struct {
		fig *experiments.Fig8Result
		err error
	}
	done := make(chan out, 1)
	go func() {
		fig, err := experiments.Figure8(remote)
		done <- out{fig, err}
	}()

	// Kill the first non-client node observed executing proxied work. The
	// kill is abrupt — connections severed at the HTTP layer — while the
	// Server object stays alive for orderly test cleanup.
	victim := -1
	deadline := time.After(60 * time.Second)
poll:
	for {
		for i := 1; i < len(nodes); i++ {
			if nodes[i].execs.Load() > 0 {
				victim = i
				break poll
			}
		}
		select {
		case o := <-done:
			// The batch outran the poll; nothing was mid-flight to kill,
			// but parity must still hold.
			if o.err != nil {
				t.Fatal(o.err)
			}
			if o.fig.Render() != local.Render() {
				t.Fatal("cluster figure differs from local")
			}
			t.Skip("batch completed before a proxied execution was observed; kill not exercised")
		case <-deadline:
			t.Fatal("no node ever received proxied work")
		case <-time.After(time.Millisecond):
		}
	}
	nodes[victim].hs.CloseClientConnections()
	nodes[victim].hs.Close()

	select {
	case o := <-done:
		if o.err != nil {
			t.Fatalf("batch did not survive node %d's death: %v", victim, o.err)
		}
		if o.fig.Render() != local.Render() {
			t.Fatalf("post-failover figure differs from local:\n--- local ---\n%s--- cluster ---\n%s",
				local.Render(), o.fig.Render())
		}
	case <-time.After(120 * time.Second):
		t.Fatalf("batch never completed after node %d was killed", victim)
	}
	if got := nodes[0].srv.Cluster().Stats().Failovers; got == 0 {
		t.Error("client node recorded no failovers despite the owner dying mid-batch")
	}
}

// TestE2EClusterTrace runs a full figure against a traced 3-node cluster the
// way `pexp -server a,b,c -trace-out` does and asserts the observability
// contract: every client-started trace stitches into ONE connected span tree,
// and at least one of them crosses nodes (the serving daemon plus the peer
// that owned or computed a unit). When E2E_FLIGHT_DIR is set (CI does), each
// node's flight-recorder dump is written there as a build artifact.
func TestE2EClusterTrace(t *testing.T) {
	recs := make([]*dtrace.Recorder, 3)
	nodes := startCluster(t, 3, nil, func(i int, cfg *Config) {
		cfg.Workers = 4
		cfg.SimParallelism = 8
		recs[i] = dtrace.NewRecorder(fmt.Sprintf("node%d", i), 0)
		cfg.Flight = recs[i]
	})

	ws, err := experiments.WorkloadsByName([]string{"milc", "soplex"})
	if err != nil {
		t.Fatal(err)
	}
	o := experiments.DefaultOptions()
	o.Warmup = 20_000
	o.Instructions = 80_000
	o.Parallelism = 4
	o.Workloads = ws

	endpoints := make([]string, len(nodes))
	for i, cn := range nodes {
		endpoints[i] = cn.hs.URL
	}
	o.Remote = NewClient(endpoints...)
	client := dtrace.NewRecorder("pexp", 0)
	o.Context = dtrace.NewContext(context.Background(), client, dtrace.SpanContext{})
	if _, err := experiments.Figure2(o); err != nil {
		t.Fatal(err)
	}

	sets := [][]dtrace.SpanData{client.Snapshot(dtrace.Filter{})}
	for _, r := range recs {
		sets = append(sets, r.Snapshot(dtrace.Filter{}))
	}
	spans := dtrace.Stitch(sets...)

	if dir := os.Getenv("E2E_FLIGHT_DIR"); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, r := range append([]*dtrace.Recorder{client}, recs...) {
			name := "pexp"
			if i > 0 {
				name = fmt.Sprintf("node%d", i-1)
			}
			f, err := os.Create(filepath.Join(dir, name+"-flight.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			if err := r.WriteJSONL(f, dtrace.Filter{}); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}

	traces := dtrace.TraceIDs(sets[0])
	if len(traces) == 0 {
		t.Fatal("client recorded no traces")
	}
	crossed := 0
	for _, tr := range traces {
		st := dtrace.TreeOf(tr, spans)
		if !st.Connected() {
			t.Errorf("trace %s: %d spans, %d roots, %d orphans over %v — want one connected tree",
				tr, st.Spans, st.Roots, st.Orphans, st.Nodes)
		}
		daemons := 0
		for _, n := range st.Nodes {
			if n != "pexp" {
				daemons++
			}
		}
		if daemons >= 2 {
			crossed++
		}
	}
	if crossed == 0 {
		t.Errorf("no trace covered 2+ daemon nodes — cross-node hops (proxy.exec) lost the traceparent")
	}
	t.Logf("stitched %d spans across %d traces; %d trace(s) crossed nodes", len(spans), len(traces), crossed)
}
