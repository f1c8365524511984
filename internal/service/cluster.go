package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/dtrace"
	"repro/internal/sim"
	"repro/internal/simcache"
)

// Cluster mode turns N psimd nodes into one logical simulation service.
// Every simulation already has a content address (the simcache SHA-256 key),
// so a consistent-hash ring over those keys gives each one an owner node:
// the single place it is computed and cached, which is what makes dedup
// exactly-once *cluster-wide* rather than per-node. A non-owner serves a
// request from its own store, or else makes one call to the owner, which
// answers from its store or computes (proxy) — and if the owner is
// unreachable the non-owner fails over to computing locally, so a dead node
// degrades throughput, never availability. Every route that computes here —
// owned keys, failover, and the owner side of a proxy — ends in execUnit,
// the same path a single-node daemon takes.

// simOutcome says how one simulation of a job was satisfied; it drives the
// job's hit/executed counters and the daemon's metrics.
type simOutcome uint8

const (
	// simExecutedLocal ran the simulation on this node.
	simExecutedLocal simOutcome = iota
	// simHitLocal was served by this node's store (disk or shared flight).
	simHitLocal
	// simHitRemote was served from the owner's store with no new simulation.
	simHitRemote
	// simExecutedRemote was computed by the key's owner, proxied on this
	// job's behalf.
	simExecutedRemote
)

// hit reports whether the outcome avoided any new simulation.
func (o simOutcome) hit() bool { return o == simHitLocal || o == simHitRemote }

// String names the outcome for span annotations.
func (o simOutcome) String() string {
	switch o {
	case simHitLocal:
		return "hit-local"
	case simHitRemote:
		return "hit-remote"
	case simExecutedRemote:
		return "executed-remote"
	default:
		return "executed-local"
	}
}

// clusterSimRequest is the body of POST /v1/cluster/sim: a non-owner asking
// the owner to compute (or recall) one simulation.
type clusterSimRequest struct {
	Config sim.Config `json:"config"`
	Spec   SimSpec    `json:"spec"`
	Opt    sim.RunOpt `json:"opt"`
	// TimeoutMS carries the requester's remaining deadline; 0 means none.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// clusterSimResponse returns the result and whether the owner served it
// from cache (hit) or had to simulate.
type clusterSimResponse struct {
	Result sim.Result `json:"result"`
	Hit    bool       `json:"hit"`
}

// Cluster returns the server's cluster node (nil when not clustered).
func (s *Server) Cluster() *cluster.Node { return s.cluster }

// simulate satisfies one simulation of a job, routing through the cluster
// when one is configured: local cache, then the key's owner (which answers
// from its store or computes), then local execution as the failover of last
// resort. Single-node servers go straight to local execution.
func (s *Server) simulate(ctx context.Context, cfg sim.Config, u unit, opt sim.RunOpt) (sim.Result, simOutcome, error) {
	if s.cluster != nil {
		key := simcache.Key(cfg, u.spec, u.w, opt)
		// The local island first: it may hold the entry from an earlier
		// proxied call.
		if res, ok := s.cfg.Store.GetCounted(key); ok {
			s.m.cacheHits.Add(1)
			if _, sp := dtrace.Start(ctx, "cache.lookup"); sp != nil {
				sp.Annotate("hit " + shortKey(key))
				sp.End()
			}
			return res, simHitLocal, nil
		}
		if owner, self := s.cluster.Owner(key); !self {
			if res, outcome, err, handled := s.remoteSimulate(ctx, owner, key, cfg, u, opt); handled {
				return res, outcome, err
			}
			// The owner is unreachable: this node computes — availability
			// over strict ownership. The heartbeat loop re-forms the ring
			// around the failure for subsequent keys.
			s.cluster.CountFailover()
			if _, sp := dtrace.Start(ctx, "failover"); sp != nil {
				sp.Annotate(owner.ID)
				sp.End()
			}
		}
	}
	res, hit, err := s.execUnit(ctx, cfg, u, opt)
	if hit {
		return res, simHitLocal, err
	}
	return res, simExecutedLocal, err
}

// remoteSimulate asks the owner for key in one proxied call; the owner
// answers from its store (a remote hit) or computes. handled is false when
// the owner could not be reached (or answered unusably) and the caller
// should fail over to local execution; a requester-side context error is
// returned as handled, since retrying locally cannot outlive the caller's
// deadline.
func (s *Server) remoteSimulate(ctx context.Context, owner cluster.NodeInfo, key string, cfg sim.Config, u unit, opt sim.RunOpt) (sim.Result, simOutcome, error, bool) {
	req := clusterSimRequest{
		Config: cfg,
		Spec: SimSpec{
			Workload: u.w.Name,
			Base:     u.spec.Base,
			Variant:  u.spec.Variant.String(),
			L1:       string(u.spec.L1),
		},
		Opt: opt,
	}
	if d, dok := ctx.Deadline(); dok {
		if ms := time.Until(d).Milliseconds(); ms > 0 {
			req.TimeoutMS = ms
		}
	}
	pctx, proxySpan := dtrace.Start(ctx, "proxy.exec")
	proxySpan.Annotate(owner.ID)
	resp, err := s.proxyExec(pctx, owner.URL, req)
	if proxySpan != nil {
		proxySpan.Fail(err)
		proxySpan.End()
	}
	if err != nil {
		if ctx.Err() != nil {
			return sim.Result{}, simExecutedRemote, ctx.Err(), true
		}
		s.cluster.ReportFailure(owner.ID)
		return sim.Result{}, 0, nil, false
	}
	_ = s.cfg.Store.Put(key, resp.Result)
	if resp.Hit {
		s.cluster.CountRemoteHit()
		s.m.cacheHits.Add(1)
		return resp.Result, simHitRemote, nil, true
	}
	s.cluster.CountProxied()
	return resp.Result, simExecutedRemote, nil, true
}

// proxyExec round-trips POST /v1/cluster/sim on the owner, accounting the
// latency in the cluster histogram.
func (s *Server) proxyExec(ctx context.Context, base string, req clusterSimRequest) (clusterSimResponse, error) {
	start := time.Now()
	defer func() { s.cluster.ObserveRemote(time.Since(start)) }()
	body, err := json.Marshal(req)
	if err != nil {
		return clusterSimResponse{}, err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/cluster/sim", bytes.NewReader(body))
	if err != nil {
		return clusterSimResponse{}, err
	}
	hr.Header.Set("Content-Type", "application/json")
	dtrace.Inject(ctx, hr.Header)
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		return clusterSimResponse{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return clusterSimResponse{}, decodeError(resp)
	}
	var out clusterSimResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return clusterSimResponse{}, err
	}
	return out, nil
}

// handleClusterSim serves POST /v1/cluster/sim: the owner side of proxied
// execution. It runs the simulation through the same store, single-flight,
// and semaphore as local jobs, so proxied and local requests for one key
// still cost one simulation, and a stored key is answered (Hit) without
// waiting for a simulation slot.
func (s *Server) handleClusterSim(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, apiError{"draining"})
		return
	}
	var req clusterSimRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{"bad cluster sim request: " + err.Error()})
		return
	}
	if req.Opt.Instructions == 0 {
		writeJSON(w, http.StatusBadRequest, apiError{"opt.Instructions must be positive"})
		return
	}
	if err := req.Config.Validate(); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{err.Error()})
		return
	}
	u, err := resolve(req.Spec)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{err.Error()})
		return
	}
	ctx := r.Context()
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	// A traced requester's proxy.exec span parents this node's execution:
	// cluster.exec is the owner-side half of the hop.
	if sc, ok := dtrace.Extract(r.Header); ok {
		sp := s.cfg.Flight.StartSpan(sc, "cluster.exec")
		sp.Annotate(req.Spec.Workload)
		ctx = dtrace.NewContext(ctx, s.cfg.Flight, sp.Context())
		defer sp.End()
	}
	res, hit, err := s.execUnit(ctx, req.Config, u, req.Opt)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, clusterSimResponse{Result: res, Hit: hit})
}

// shortKey truncates a content-addressed key to a span-annotation-sized
// prefix; the digest prefix is enough to correlate against cache entries.
func shortKey(key string) string {
	if len(key) > 16 {
		return key[:16]
	}
	return key
}
