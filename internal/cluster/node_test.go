package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
)

// testNode is a cluster node mounted on a live httptest server, with an
// in-memory entry store behind its hooks. The URL is only known after the
// listener exists, so the handler is bound late through the mux indirection.
type testNode struct {
	*Node
	srv   *httptest.Server
	mu    sync.Mutex
	store map[string][]byte
}

// startTestNodes builds n interconnected nodes named prefix0..prefixN-1,
// each seeded with all others, with the heartbeat loop disabled (tests drive
// HeartbeatOnce).
func startTestNodes(t *testing.T, prefix string, n int) []*testNode {
	t.Helper()
	nodes := make([]*testNode, n)
	infos := make([]NodeInfo, n)
	for i := range nodes {
		tn := &testNode{store: map[string][]byte{}}
		mux := http.NewServeMux()
		mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
			tn.Handler().ServeHTTP(w, r)
		})
		tn.srv = httptest.NewServer(mux)
		t.Cleanup(tn.srv.Close)
		infos[i] = NodeInfo{ID: fmt.Sprintf("%s%d", prefix, i), URL: tn.srv.URL}
		nodes[i] = tn
	}
	for i, tn := range nodes {
		tn := tn
		hooks := Hooks{
			FetchLocal: func(key string) ([]byte, bool) {
				tn.mu.Lock()
				defer tn.mu.Unlock()
				b, ok := tn.store[key]
				return b, ok
			},
		}
		tn.Node = NewNode(Options{
			Self:              infos[i],
			Seeds:             infos,
			HeartbeatInterval: -1,
		}, hooks)
		t.Cleanup(tn.Close)
	}
	return nodes
}

// TestHeartbeatGossip: a two-way heartbeat exchanges drain state, and a
// third node only one member knows spreads to the rest through gossip.
func TestHeartbeatGossip(t *testing.T) {
	nodes := startTestNodes(t, "n", 2)
	a, b := nodes[0], nodes[1]

	// A late joiner c announces itself to a only.
	c := startTestNodes(t, "late", 1)[0]
	req := HeartbeatRequest{From: c.Self(), Peers: c.Membership().Peers()}
	resp, err := (&Transport{}).Heartbeat(context.Background(), a.srv.URL, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.From.ID != "n0" {
		t.Fatalf("heartbeat answered by %s, want n0", resp.From.ID)
	}
	if got := a.Membership().Ring().Members(); len(got) != 3 {
		t.Fatalf("a's ring after c's heartbeat = %v, want 3 members", got)
	}

	// a heartbeats b: b learns about c second-hand (alive-vouched → routable).
	a.HeartbeatOnce(context.Background())
	if got := b.Membership().Ring().Members(); len(got) != 3 {
		t.Fatalf("b's ring after gossip = %v, want 3 members (c via rumor)", got)
	}

	// Drain a; its next heartbeat tells b, which reroutes immediately.
	a.Leave(context.Background())
	bView := b.Membership().Ring().Members()
	for _, id := range bView {
		if id == a.Self().ID {
			t.Fatalf("draining node %s still on b's ring: %v", a.Self().ID, bView)
		}
	}
}

// TestHeartbeatFailureThreshold: an unreachable peer leaves the ring after
// FailThreshold missed rounds and rejoins on recovery.
func TestHeartbeatFailureThreshold(t *testing.T) {
	nodes := startTestNodes(t, "n", 2)
	a, b := nodes[0], nodes[1]
	b.srv.Close() // b goes dark

	for i := 0; i < 3; i++ { // default FailThreshold = 3
		a.HeartbeatOnce(context.Background())
	}
	if got := a.Membership().Ring().Members(); !reflect.DeepEqual(got, []string{a.Self().ID}) {
		t.Fatalf("dead peer still routable after threshold: %v", got)
	}
	_ = b
}

// TestCacheTransfer: GET serves stored entries with a checksum the fetcher
// verifies, and answers an absent key with a clean miss.
func TestCacheTransfer(t *testing.T) {
	a := startTestNodes(t, "n", 1)[0]
	entry := []byte(`{"result":42}`)
	a.mu.Lock()
	a.store["deadbeef"] = entry
	a.mu.Unlock()

	tr := &Transport{}
	body, ok, err := tr.FetchEntry(context.Background(), a.srv.URL, "deadbeef")
	if err != nil || !ok || string(body) != string(entry) {
		t.Fatalf("FetchEntry = %q, %v, %v", body, ok, err)
	}
	if a.Stats().EntriesServed != 1 {
		t.Errorf("EntriesServed = %d, want 1", a.Stats().EntriesServed)
	}
	if _, ok, err := tr.FetchEntry(context.Background(), a.srv.URL, "missing"); ok || err != nil {
		t.Fatalf("missing key: ok=%v err=%v, want clean miss", ok, err)
	}
}

func TestParsePeers(t *testing.T) {
	got, err := ParsePeers(" a=http://h1:8080 , http://h2:9090/ ,,b=https://h3 ")
	if err != nil {
		t.Fatal(err)
	}
	want := []NodeInfo{
		{ID: "a", URL: "http://h1:8080"},
		{ID: "h2:9090", URL: "http://h2:9090"},
		{ID: "b", URL: "https://h3"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParsePeers = %+v, want %+v", got, want)
	}
	if _, err := ParsePeers("nonsense"); err == nil {
		t.Error("schemeless peer accepted")
	}
	if out, err := ParsePeers(""); err != nil || out != nil {
		t.Errorf("empty peers = %v, %v", out, err)
	}
}
