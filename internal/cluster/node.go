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

	"repro/internal/telemetry"
)

// Options configures a cluster node.
type Options struct {
	// Self identifies this node; Self.URL is the address peers dial.
	Self NodeInfo
	// Seeds is the static bootstrap peer list (self tolerated and ignored).
	Seeds []NodeInfo
	// HeartbeatInterval between gossip rounds (default 1s; < 0 disables the
	// background loop — tests drive HeartbeatOnce directly).
	HeartbeatInterval time.Duration
}

// failThreshold is how many consecutive missed heartbeats rule a peer dead.
// Proxy failures kill immediately regardless (ReportFailure).
const failThreshold = 3

// Node is one member's cluster runtime: membership + routing + the
// heartbeat loop + the control plane's server side.
type Node struct {
	opts Options
	mem  *Membership

	// Cluster traffic counters (see StatsView / WriteMetrics).
	remoteHits  atomic.Uint64 // results the owner served from its store
	proxiedSims atomic.Uint64 // sims executed remotely on their owner
	failovers   atomic.Uint64 // remote attempts abandoned for local execution

	proxyLatency *telemetry.Histogram // ns per proxied round-trip

	loopCtx  context.Context
	loopStop context.CancelFunc
	wg       sync.WaitGroup
	started  atomic.Bool

	// ownerDraining reports whether the owning server has stopped accepting
	// work; nil means never. Heartbeats carry it so peers route around a
	// draining node.
	ownerDraining func() bool
}

// NewNode builds a node; draining (safe for concurrent use, may be nil)
// reports the owning server's drain state. Call Start to launch the
// heartbeat loop (tests may instead drive HeartbeatOnce manually).
func NewNode(opts Options, draining func() bool) *Node {
	if opts.HeartbeatInterval == 0 {
		opts.HeartbeatInterval = time.Second
	}
	ctx, stop := context.WithCancel(context.Background())
	return &Node{
		opts:          opts,
		mem:           NewMembership(opts.Self, opts.Seeds, DefaultVirtualNodes),
		proxyLatency:  telemetry.NewHistogram(telemetry.LatencyBounds...),
		loopCtx:       ctx,
		loopStop:      stop,
		ownerDraining: draining,
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
// (a failed proxied call): the peer leaves the ring immediately and the
// heartbeat loop takes over probing for its return.
func (n *Node) ReportFailure(id string) {
	n.mem.MarkFailure(id, 1)
}

// ObserveRemote folds one proxied round-trip into the proxy latency
// histogram.
func (n *Node) ObserveRemote(d time.Duration) { n.proxyLatency.Observe(uint64(d)) }

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
	req := n.heartbeat()
	for _, p := range n.mem.Peers() {
		hctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		resp, err := Heartbeat(hctx, p.URL, req)
		cancel()
		if err != nil {
			n.mem.MarkFailure(p.ID, failThreshold)
			continue
		}
		n.mem.MarkAlive(p.ID, resp.Draining)
		n.mem.Merge(resp.Peers)
	}
}

// heartbeat is this node's side of a gossip exchange, sent as a request by
// HeartbeatOnce and as the response by handleHeartbeat.
func (n *Node) heartbeat() HeartbeatMessage {
	return HeartbeatMessage{
		From:     n.mem.Self(),
		Draining: n.draining(),
		Peers:    n.mem.Peers(),
	}
}

func (n *Node) draining() bool {
	if n.mem.Draining() {
		return true
	}
	return n.ownerDraining != nil && n.ownerDraining()
}

// Handler serves the cluster control plane: heartbeat and state. The owning
// server mounts it alongside its own API.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathHeartbeat, n.handleHeartbeat)
	mux.HandleFunc("GET "+PathState, n.handleState)
	return mux
}

func (n *Node) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatMessage
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
	writeJSON(w, n.heartbeat())
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

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(v)
}

// Stats snapshots the node's counters.
func (n *Node) Stats() StatsView {
	return StatsView{
		RemoteHits:  n.remoteHits.Load(),
		ProxiedSims: n.proxiedSims.Load(),
		Failovers:   n.failovers.Load(),
	}
}

// String renders a short identity for logs.
func (n *Node) String() string {
	return fmt.Sprintf("cluster node %s (%s)", n.mem.Self().ID, strings.TrimRight(n.mem.Self().URL, "/"))
}
