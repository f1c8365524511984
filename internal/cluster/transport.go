package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Cluster control-plane paths. Simulations travel on the service's own
// POST /v1/cluster/sim; this package serves only membership.
const (
	PathHeartbeat = "/v1/cluster/heartbeat"
	PathState     = "/v1/cluster/state"
)

// HeartbeatMessage is one side of the two-way gossip exchange: the sender's
// identity, draining state and peer view. A heartbeat request and its
// response carry the same message.
type HeartbeatMessage struct {
	From     NodeInfo    `json:"from"`
	Draining bool        `json:"draining"`
	Peers    []PeerState `json:"peers,omitempty"`
}

// StateView is the diagnostic snapshot served at /v1/cluster/state.
type StateView struct {
	Self      NodeInfo    `json:"self"`
	Draining  bool        `json:"draining"`
	RingNodes []string    `json:"ring_nodes"`
	Peers     []PeerState `json:"peers,omitempty"`
	Stats     StatsView   `json:"stats"`
}

// StatsView mirrors the node's cluster counters for the state endpoint.
type StatsView struct {
	RemoteHits  uint64 `json:"remote_hits"`
	ProxiedSims uint64 `json:"proxied_sims"`
	Failovers   uint64 `json:"failovers"`
}

// Heartbeat exchanges liveness and peer views with the node at base. It runs
// on http.DefaultClient, bounded by ctx rather than a client timeout.
func Heartbeat(ctx context.Context, base string, msg HeartbeatMessage) (HeartbeatMessage, error) {
	var out HeartbeatMessage
	body, err := json.Marshal(msg)
	if err != nil {
		return out, err
	}
	url := strings.TrimRight(base, "/") + PathHeartbeat
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return out, fmt.Errorf("cluster: %s: HTTP %d: %s", url, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	return out, err
}
