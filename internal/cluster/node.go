package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dtrace"
)

// Options configures a cluster node.
type Options struct {
	// Self identifies this node; Self.URL is the address peers dial.
	Self NodeInfo
	// Seeds is the static bootstrap peer list (self tolerated and ignored).
	Seeds []NodeInfo
	// VirtualNodes per member on the ring (DefaultVirtualNodes if <= 0).
	VirtualNodes int
	// HeartbeatInterval between gossip rounds (default 1s; < 0 disables the
	// background loop — tests drive HeartbeatOnce directly).
	HeartbeatInterval time.Duration
	// FailThreshold is how many consecutive missed heartbeats rule a peer
	// dead (default 3). Proxy failures kill immediately regardless.
	FailThreshold int
	// Transport defaults to a fresh Transport over http.DefaultClient.
	Transport *Transport
	// Flight, when non-nil, records spans for the cluster protocol's server
	// side (cache entries served to peers) into the node's flight ring. Nil
	// disables span recording for free.
	Flight *dtrace.Recorder
}

func (o Options) withDefaults() Options {
	if o.VirtualNodes <= 0 {
		o.VirtualNodes = DefaultVirtualNodes
	}
	if o.HeartbeatInterval == 0 {
		o.HeartbeatInterval = time.Second
	}
	if o.FailThreshold <= 0 {
		o.FailThreshold = 3
	}
	if o.Transport == nil {
		o.Transport = &Transport{}
	}
	return o
}

// Hooks is how the owning subsystem (psimd's service layer) plugs its store
// and lifecycle into the cluster protocol. Both hooks must be safe for
// concurrent use; either may be nil, which disables the behavior it backs.
type Hooks struct {
	// FetchLocal returns the locally stored serialized entry for key, if
	// present. Backs GET /v1/cache/{key}.
	FetchLocal func(key string) ([]byte, bool)
	// Draining reports whether the owning server has stopped accepting
	// work; heartbeats carry it so peers route around a draining node.
	Draining func() bool
}

// Node is one member's cluster runtime: membership + routing + the
// heartbeat loop + the protocol's server side.
type Node struct {
	opts Options
	mem  *Membership
	tr   *Transport

	// Cluster traffic counters (see StatsView / WriteMetrics).
	remoteHits    atomic.Uint64 // results obtained from a peer (fetch or proxy hit)
	proxiedSims   atomic.Uint64 // sims executed remotely on their owner
	failovers     atomic.Uint64 // remote attempts abandoned for local execution
	entriesServed atomic.Uint64 // cache entries served to peers
	proxyLatency  Histogram     // seconds per remote fetch/exec round-trip

	loopCtx  context.Context
	loopStop context.CancelFunc
	wg       sync.WaitGroup
	started  atomic.Bool

	hooks Hooks
}

// NewNode builds a node from options and hooks; call Start to launch the
// heartbeat loop (tests may instead drive HeartbeatOnce manually).
func NewNode(opts Options, hooks Hooks) *Node {
	opts = opts.withDefaults()
	ctx, stop := context.WithCancel(context.Background())
	return &Node{
		opts:         opts,
		mem:          NewMembership(opts.Self, opts.Seeds, opts.VirtualNodes),
		tr:           opts.Transport,
		proxyLatency: NewLatencyHistogram(),
		loopCtx:      ctx,
		loopStop:     stop,
		hooks:        hooks,
	}
}

// Self returns this node's identity.
func (n *Node) Self() NodeInfo { return n.mem.Self() }

// Membership exposes the peer table (for state endpoints and tests).
func (n *Node) Membership() *Membership { return n.mem }

// Owner resolves the key's owning member. self reports whether that is this
// node (also true for an empty ring, so callers degrade to local execution).
func (n *Node) Owner(key string) (info NodeInfo, self bool) {
	id := n.mem.Ring().Owner(key)
	if id == "" || id == n.mem.Self().ID {
		return n.mem.Self(), true
	}
	info, ok := n.mem.Lookup(id)
	if !ok {
		return n.mem.Self(), true
	}
	return info, false
}

// ReportFailure records first-hand evidence that peer id is unreachable
// (a failed proxy or fetch): the peer leaves the ring immediately and the
// heartbeat loop takes over probing for its return.
func (n *Node) ReportFailure(id string) {
	n.mem.MarkFailure(id, 1)
}

// ObserveRemote folds one remote round-trip (cache fetch or proxied
// execution) into the proxy latency histogram.
func (n *Node) ObserveRemote(d time.Duration) { n.proxyLatency.Observe(d.Seconds()) }

// CountRemoteHit / CountProxied / CountFailover tick the routing counters;
// the service's simulate path calls them as it routes.
func (n *Node) CountRemoteHit() { n.remoteHits.Add(1) }
func (n *Node) CountProxied()   { n.proxiedSims.Add(1) }
func (n *Node) CountFailover()  { n.failovers.Add(1) }

// Start launches the heartbeat loop.
func (n *Node) Start() {
	if !n.started.CompareAndSwap(false, true) {
		return
	}
	if n.opts.HeartbeatInterval > 0 {
		n.wg.Add(1)
		go n.loop(n.opts.HeartbeatInterval, n.HeartbeatOnce)
	}
}

// Close stops the heartbeat loop (an in-flight exchange is canceled).
func (n *Node) Close() {
	n.loopStop()
	n.wg.Wait()
}

func (n *Node) loop(every time.Duration, fn func(context.Context)) {
	defer n.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-n.loopCtx.Done():
			return
		case <-t.C:
			fn(n.loopCtx)
		}
	}
}

// Leave announces departure: the node flags itself draining and pushes one
// final heartbeat round so peers re-route without waiting to time it out.
func (n *Node) Leave(ctx context.Context) {
	n.mem.SetDraining(true)
	n.HeartbeatOnce(ctx)
}

// HeartbeatOnce runs one gossip round: every known peer (dead ones
// included, so a returning node is noticed) receives our identity, draining
// state, and peer view, and their response is merged back.
func (n *Node) HeartbeatOnce(ctx context.Context) {
	req := HeartbeatRequest{
		From:     n.mem.Self(),
		Draining: n.draining(),
		Peers:    n.mem.Peers(),
	}
	for _, p := range n.mem.Peers() {
		hctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		resp, err := n.tr.Heartbeat(hctx, p.URL, req)
		cancel()
		if err != nil {
			n.mem.MarkFailure(p.ID, n.opts.FailThreshold)
			continue
		}
		n.mem.MarkAlive(p.ID, resp.Draining)
		n.mem.Merge(resp.Peers)
	}
}

func (n *Node) draining() bool {
	if n.mem.Draining() {
		return true
	}
	return n.hooks.Draining != nil && n.hooks.Draining()
}

// Handler serves the cluster protocol: heartbeat, state, and the cache
// entry fetch endpoint. The owning server mounts it alongside its own API.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathHeartbeat, n.handleHeartbeat)
	mux.HandleFunc("GET "+PathState, n.handleState)
	mux.HandleFunc("GET "+PathCache+"{key}", n.handleCacheGet)
	return mux
}

func (n *Node) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		http.Error(w, "bad heartbeat: "+err.Error(), http.StatusBadRequest)
		return
	}
	// The sender just proved itself alive first-hand; fold it and its view in.
	if req.From.ID != "" {
		n.mem.Merge([]PeerState{{NodeInfo: req.From, Alive: true, Draining: req.Draining}})
		n.mem.MarkAlive(req.From.ID, req.Draining)
	}
	n.mem.Merge(req.Peers)
	writeJSON(w, HeartbeatResponse{
		From:     n.mem.Self(),
		Draining: n.draining(),
		Peers:    n.mem.Peers(),
	})
}

func (n *Node) handleState(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, StateView{
		Self:      n.mem.Self(),
		Draining:  n.draining(),
		RingNodes: n.mem.Ring().Members(),
		Peers:     n.mem.Peers(),
		Stats:     n.Stats(),
	})
}

func (n *Node) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	// PathValue unescapes %2F, so a key like "..%2F..%2Fetc" would name a
	// file outside the store. Such a key can name no entry: a clean 404.
	if !hexKey(key) {
		http.Error(w, "not cached", http.StatusNotFound)
		return
	}
	// Only traced fetches record a span: an orphan-free tree needs the
	// requester's traceparent, and untraced peers should stay free.
	if sc, ok := dtrace.Extract(r.Header); ok {
		sp := n.opts.Flight.StartSpan(sc, "cache.serve")
		sp.Annotate(shortKey(key))
		defer sp.End()
	}
	if n.hooks.FetchLocal == nil {
		http.Error(w, "no local store", http.StatusNotFound)
		return
	}
	body, ok := n.hooks.FetchLocal(key)
	if !ok {
		http.Error(w, "not cached", http.StatusNotFound)
		return
	}
	n.entriesServed.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(ChecksumHeader, Checksum(body))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(v)
}

// Stats snapshots the node's counters.
func (n *Node) Stats() StatsView {
	return StatsView{
		RemoteHits:    n.remoteHits.Load(),
		ProxiedSims:   n.proxiedSims.Load(),
		Failovers:     n.failovers.Load(),
		EntriesServed: n.entriesServed.Load(),
	}
}

// FetchRemote retrieves (and checksum-verifies) key's entry from the peer at
// base, accounting the round-trip.
func (n *Node) FetchRemote(ctx context.Context, base, key string) ([]byte, bool, error) {
	start := time.Now()
	body, ok, err := n.tr.FetchEntry(ctx, base, key)
	n.ObserveRemote(time.Since(start))
	return body, ok, err
}

// hexKey reports whether key is non-empty lowercase hex, the alphabet of
// the content-addressed (SHA-256) keys the cache stores entries under.
func hexKey(key string) bool {
	if key == "" {
		return false
	}
	for i := 0; i < len(key); i++ {
		if c := key[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// shortKey truncates a content-addressed key to a span-annotation-sized
// prefix (keys are digests; the prefix is enough to correlate).
func shortKey(key string) string {
	if len(key) > 16 {
		return key[:16]
	}
	return key
}

// String renders a short identity for logs.
func (n *Node) String() string {
	return fmt.Sprintf("cluster node %s (%s)", n.mem.Self().ID, strings.TrimRight(n.mem.Self().URL, "/"))
}
