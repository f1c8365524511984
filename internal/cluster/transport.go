package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/dtrace"
)

// Cluster protocol paths. The cache path is public-ish (any node may fetch
// an entry); the /v1/cluster/* paths are the control plane.
const (
	PathHeartbeat = "/v1/cluster/heartbeat"
	PathState     = "/v1/cluster/state"
	PathCache     = "/v1/cache/" // + {key}
)

// ChecksumHeader carries the hex SHA-256 of a transferred cache entry's
// bytes. Entry bodies are JSON-encoded simulation results whose cache key is
// a digest of the *inputs*, so the body needs its own integrity check — a
// truncated proxy response must not poison a peer's store.
const ChecksumHeader = "X-Entry-Checksum"

// Checksum returns the hex SHA-256 of body.
func Checksum(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// HeartbeatRequest is one node announcing itself (and its world view) to a
// peer.
type HeartbeatRequest struct {
	From     NodeInfo    `json:"from"`
	Draining bool        `json:"draining"`
	Peers    []PeerState `json:"peers,omitempty"`
}

// HeartbeatResponse returns the receiver's state and view, completing the
// two-way gossip exchange.
type HeartbeatResponse struct {
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
	RemoteHits    uint64 `json:"remote_hits"`
	ProxiedSims   uint64 `json:"proxied_sims"`
	Failovers     uint64 `json:"failovers"`
	EntriesServed uint64 `json:"entries_served"`
}

// The client side of the cluster protocol runs on http.DefaultClient: calls
// are bounded by their context, not a client timeout, so long proxied
// simulations work.

// postJSON round-trips a JSON request/response pair.
func postJSON(ctx context.Context, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	dtrace.Inject(ctx, req.Header)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("cluster: %s: HTTP %d: %s", url, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Heartbeat exchanges liveness and peer views with the node at base.
func Heartbeat(ctx context.Context, base string, req HeartbeatRequest) (HeartbeatResponse, error) {
	var resp HeartbeatResponse
	err := postJSON(ctx, strings.TrimRight(base, "/")+PathHeartbeat, req, &resp)
	return resp, err
}

// FetchEntry retrieves the cache entry for key from the node at base,
// verifying the body against the peer's checksum. ok is false on a clean
// 404 (the peer simply does not have it); any other failure — including a
// checksum mismatch — is an error.
func FetchEntry(ctx context.Context, base, key string) (body []byte, ok bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimRight(base, "/")+PathCache+key, nil)
	if err != nil {
		return nil, false, err
	}
	dtrace.Inject(ctx, req.Header)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("cluster: fetch %s from %s: HTTP %d", key, base, resp.StatusCode)
	}
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, false, err
	}
	if want := resp.Header.Get(ChecksumHeader); want != "" && want != Checksum(body) {
		return nil, false, fmt.Errorf("cluster: fetch %s from %s: checksum mismatch (truncated or corrupted transfer)", key, base)
	}
	return body, true, nil
}
