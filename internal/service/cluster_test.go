package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/simcache"
	"repro/internal/trace"
)

// clusterNode is one member of an in-process test cluster: a full Server
// (own store, own worker pool) on a live HTTP listener.
type clusterNode struct {
	srv   *Server
	hs    *httptest.Server
	store *simcache.Store
	c     *Client
	execs atomic.Int64 // simulations this node's simFn actually ran
}

// startCluster builds an n-node cluster. Peer URLs must exist before the
// servers are configured, so each listener starts with a late-bound handler
// that is pointed at its Server once constructed. The background heartbeat
// loop is disabled — tests drive protocol rounds explicitly — and seeds
// start alive, so routing is deterministic from the first request.
func startCluster(t *testing.T, n int, fn simFunc, tweak func(i int, cfg *Config)) []*clusterNode {
	t.Helper()
	nodes := make([]*clusterNode, n)
	infos := make([]cluster.NodeInfo, n)
	handlers := make([]atomic.Value, n) // of http.Handler
	for i := range nodes {
		i := i
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h, _ := handlers[i].Load().(http.Handler)
			if h == nil {
				http.Error(w, "starting", http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(hs.Close)
		infos[i] = cluster.NodeInfo{ID: fmt.Sprintf("node%d", i), URL: hs.URL}
		nodes[i] = &clusterNode{hs: hs}
	}
	for i, cn := range nodes {
		store, err := simcache.New(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Store: store, Workers: 2, SimParallelism: 2,
			Cluster: &cluster.Options{
				Self:              infos[i],
				Seeds:             infos,
				HeartbeatInterval: -1,
			},
		}
		if tweak != nil {
			tweak(i, &cfg)
		}
		srv := New(cfg)
		if fn != nil {
			cn := cn
			srv.simFn = func(ctx context.Context, c sim.Config, spec sim.PrefSpec, w trace.Workload, opt sim.RunOpt) (sim.Result, error) {
				cn.execs.Add(1)
				return fn(ctx, c, spec, w, opt)
			}
		}
		srv.Start()
		t.Cleanup(srv.Close)
		handlers[i].Store(srv.Handler())
		cn.srv, cn.store, cn.c = srv, store, NewClient(infos[i].URL)
	}
	return nodes
}

// keyAndOwner computes the request's cache key the way the daemon will and
// resolves which node owns it.
func keyAndOwner(t *testing.T, nodes []*clusterNode, req SimRequest) (string, int) {
	t.Helper()
	u, err := resolve(req.Jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	if req.Config != nil {
		cfg = *req.Config
	}
	key := simcache.Key(cfg, u.spec, u.w, req.Opt)
	info, self := nodes[0].srv.Cluster().Owner(key)
	if self {
		return key, 0
	}
	for i := range nodes {
		if nodes[i].srv.Cluster().Self().ID == info.ID {
			return key, i
		}
	}
	t.Fatalf("owner %s not among test nodes", info.ID)
	return "", 0
}

func totalExecs(nodes []*clusterNode) int64 {
	var n int64
	for _, cn := range nodes {
		n += cn.execs.Load()
	}
	return n
}

func runOne(t *testing.T, c *Client, req SimRequest) sim.Result {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
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
	if len(final.Results) != 1 {
		t.Fatalf("job %s returned %d results", final.ID, len(final.Results))
	}
	return final.Results[0]
}

// TestClusterWarmCrossNodeHit: a result simulated and cached on its owning
// node is served to a client of a different node with zero additional
// simulations — a warm remote hit, answered from the owner's store through
// the proxied call and counted in the metrics.
func TestClusterWarmCrossNodeHit(t *testing.T) {
	nodes := startCluster(t, 2, fixedSim(telemetryFixture()), nil)
	req := testRequest(1)
	key, owner := keyAndOwner(t, nodes, req)
	other := 1 - owner

	// Cold: the owner's own client simulates once, filling only its store.
	first := runOne(t, nodes[owner].c, req)
	if got := totalExecs(nodes); got != 1 {
		t.Fatalf("cold run executed %d sims, want 1", got)
	}
	if _, ok := nodes[other].store.Get(key); ok {
		t.Fatal("entry leaked to the non-owner before it ever asked")
	}

	// Warm: the other node's client gets the owner's cached result.
	second := runOne(t, nodes[other].c, req)
	if got := totalExecs(nodes); got != 1 {
		t.Fatalf("warm cross-node run re-simulated: %d total execs, want 1", got)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cross-node result differs:\n%+v\n%+v", first, second)
	}
	if got := nodes[other].srv.Cluster().Stats().RemoteHits; got != 1 {
		t.Errorf("non-owner RemoteHits = %d, want 1", got)
	}
	// The result landed locally, so a third request on that node is a purely
	// local hit.
	if _, ok := nodes[other].store.Get(key); !ok {
		t.Error("remote hit did not warm the local store")
	}
	runOne(t, nodes[other].c, req)
	if got := nodes[other].srv.Cluster().Stats().RemoteHits; got != 1 {
		t.Errorf("local re-serve went remote again: RemoteHits = %d", got)
	}

	// And the exposition reflects it.
	resp, err := http.Get(nodes[other].hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "psimd_cluster_remote_hits_total 1") {
		t.Error("/metrics missing psimd_cluster_remote_hits_total 1")
	}
}

// TestClusterProxyExec: a cold request arriving at a non-owner is computed
// on the owner (exactly-once, owner-side accounting) and the result fills
// both stores.
func TestClusterProxyExec(t *testing.T) {
	nodes := startCluster(t, 2, fixedSim(telemetryFixture()), nil)
	req := testRequest(1)
	key, owner := keyAndOwner(t, nodes, req)
	other := 1 - owner

	runOne(t, nodes[other].c, req)
	if got := nodes[owner].execs.Load(); got != 1 {
		t.Errorf("owner executed %d sims, want 1 (proxied to owner)", got)
	}
	if got := nodes[other].execs.Load(); got != 0 {
		t.Errorf("non-owner executed %d sims, want 0", got)
	}
	if got := nodes[other].srv.Cluster().Stats().ProxiedSims; got != 1 {
		t.Errorf("ProxiedSims = %d, want 1", got)
	}
	for i, cn := range nodes {
		if _, ok := cn.store.Get(key); !ok {
			t.Errorf("node %d store missing the entry after proxied execution", i)
		}
	}
	// The owner's executed-counter carries the work; the requester's does not.
	if got := nodes[owner].srv.m.simsExecuted.Load(); got != 1 {
		t.Errorf("owner psimd_sims_executed_total = %d, want 1", got)
	}
	if got := nodes[other].srv.m.simsExecuted.Load(); got != 0 {
		t.Errorf("non-owner psimd_sims_executed_total = %d, want 0", got)
	}
}

// TestClusterFailover: when a key's owner is unreachable, the requesting
// node computes locally — a dead node costs throughput, not availability —
// and the failure immediately removes the owner from the requester's ring.
func TestClusterFailover(t *testing.T) {
	nodes := startCluster(t, 2, fixedSim(telemetryFixture()), nil)
	req := testRequest(1)
	_, owner := keyAndOwner(t, nodes, req)
	other := 1 - owner

	nodes[owner].hs.CloseClientConnections()
	nodes[owner].hs.Close()

	res := runOne(t, nodes[other].c, req)
	if res.Instructions != 1000 {
		t.Fatalf("failover result = %+v", res)
	}
	if got := nodes[other].execs.Load(); got != 1 {
		t.Errorf("survivor executed %d sims, want 1", got)
	}
	if got := nodes[other].srv.Cluster().Stats().Failovers; got != 1 {
		t.Errorf("Failovers = %d, want 1", got)
	}
	if got := nodes[other].srv.Cluster().Membership().Ring().Len(); got != 1 {
		t.Errorf("dead owner still on ring (len %d), want 1", got)
	}
}

// TestClusterOwnerErrorIsNotFailure: an owner that answers the proxied call
// with an error — here its simulation fails — is alive. The requester keeps
// it on the ring, does not recompute the unit locally, and fails the job with
// the owner's message.
func TestClusterOwnerErrorIsNotFailure(t *testing.T) {
	failing := func(ctx context.Context, cfg sim.Config, spec sim.PrefSpec, w trace.Workload, opt sim.RunOpt) (sim.Result, error) {
		return sim.Result{}, errors.New("injected owner failure")
	}
	nodes := startCluster(t, 2, failing, nil)
	req := testRequest(1)
	_, owner := keyAndOwner(t, nodes, req)
	other := 1 - owner

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	c := nodes[other].c
	v, err := submitJob(ctx, c, req)
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.follow(ctx, c.first(), v.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusFailed || !strings.Contains(final.Error, "injected owner failure") {
		t.Errorf("job %s (%q), want failed with the owner's message", final.Status, final.Error)
	}
	if got := nodes[owner].execs.Load(); got != 1 {
		t.Errorf("owner ran the unit %d times, want 1", got)
	}
	if got := nodes[other].execs.Load(); got != 0 {
		t.Errorf("requester recomputed the unit %d times, want 0", got)
	}
	st := nodes[other].srv.Cluster().Stats()
	if st.Failovers != 0 {
		t.Errorf("Failovers = %d, want 0", st.Failovers)
	}
	if got := nodes[other].srv.Cluster().Membership().Ring().Len(); got != 2 {
		t.Errorf("requester's ring has %d members, want 2: the owner answered", got)
	}
}

// victimOwnedRequest returns a single-sim request whose cache key is owned
// by nodes[victim], found by walking seeds (each seed changes the key).
func victimOwnedRequest(t *testing.T, nodes []*clusterNode, victim int, fromSeed uint64) SimRequest {
	t.Helper()
	for seed := fromSeed; seed < fromSeed+200; seed++ {
		req := testRequest(1)
		req.Opt.Seed = seed
		if _, owner := keyAndOwner(t, nodes, req); owner == victim {
			return req
		}
	}
	t.Fatal("no victim-owned key in 200 seeds (ring distribution broken?)")
	return SimRequest{}
}

// TestClusterCacheGetRejectsTraversal guards the cache-entry route that
// cluster mode no longer serves: peers reach a key's owner only through
// POST /v1/cluster/sim. A path-escaping GET must not reach the store, which
// would serve any JSON object the daemon can read and delete any non-JSON
// file as a "corrupt entry".
func TestClusterCacheGetRejectsTraversal(t *testing.T) {
	nodes := startCluster(t, 1, nil, nil)
	// GET /v1/cache/..%2Fvictim would unescape to key "../victim", which the
	// store maps to victim.json in its directory's parent.
	victim := filepath.Join(filepath.Dir(nodes[0].store.Dir()), "victim.json")
	for _, planted := range []string{"not json at all", `{"secret":"s3cr3t"}`} {
		if err := os.WriteFile(victim, []byte(planted), 0o644); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get(nodes[0].hs.URL + "/v1/cache/..%2Fvictim")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("traversal GET with %q planted: HTTP %d, want 404", planted, resp.StatusCode)
		}
		if strings.Contains(string(body), planted) {
			t.Errorf("traversal GET leaked the planted file: %q", body)
		}
		if got, err := os.ReadFile(victim); err != nil || string(got) != planted {
			t.Errorf("planted file after traversal GET = %q, %v; want it untouched", got, err)
		}
	}
}
