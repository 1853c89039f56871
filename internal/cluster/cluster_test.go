package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"videocdn/internal/chunk"
	"videocdn/internal/edge"
	"videocdn/internal/resilience"
)

func threeNodes() []Node {
	return []Node{
		{ID: "a", URL: "http://a.example"},
		{ID: "b", URL: "http://b.example"},
		{ID: "c", URL: "http://c.example"},
	}
}

func mustMembership(t *testing.T, nodes []Node) *Membership {
	t.Helper()
	m, err := NewMembership(nodes)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMembershipValidation(t *testing.T) {
	if _, err := NewMembership([]Node{{ID: ""}}); err == nil {
		t.Error("empty ID must be rejected")
	}
	if _, err := NewMembership([]Node{{ID: "a"}, {ID: "a"}}); err == nil {
		t.Error("duplicate IDs must be rejected")
	}
}

func TestMembershipLivenessAndEpoch(t *testing.T) {
	m := mustMembership(t, threeNodes())
	e0 := m.Epoch()
	if !m.Alive("a") || !m.Alive("b") || !m.Alive("c") {
		t.Fatal("all nodes start alive")
	}
	if m.Alive("ghost") {
		t.Error("unknown nodes are dead")
	}
	if !m.SetAlive("b", false) || m.Alive("b") {
		t.Error("SetAlive(b, false) must flip and report change")
	}
	if m.SetAlive("b", false) {
		t.Error("no-op SetAlive must report false")
	}
	if m.SetAlive("ghost", false) {
		t.Error("unknown-ID SetAlive must report false")
	}
	if got := m.AliveIDs(); len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Errorf("AliveIDs = %v", got)
	}
	if m.Epoch() == e0 {
		t.Error("liveness changes must advance the epoch")
	}
	// Join/leave: persisting nodes keep liveness, new nodes start alive.
	if err := m.SetNodes(append(threeNodes(), Node{ID: "d", URL: "http://d.example"})); err != nil {
		t.Fatal(err)
	}
	if m.Alive("b") {
		t.Error("b's deadness must survive SetNodes")
	}
	if !m.Alive("d") {
		t.Error("joined node must start alive")
	}
}

func TestRouterDeterministicAndBalanced(t *testing.T) {
	m := mustMembership(t, threeNodes())
	r := NewRouter(m)
	owned := map[string]int{}
	const videos = 9999
	for v := chunk.VideoID(1); v <= videos; v++ {
		o1 := r.Owners(v)
		o2 := r.Owners(v)
		if len(o1) != 3 {
			t.Fatalf("Owners(%d) has %d entries", v, len(o1))
		}
		for i := range o1 {
			if o1[i].ID != o2[i].ID {
				t.Fatalf("Owners(%d) not deterministic", v)
			}
		}
		route, ok := r.Route(v)
		if !ok || route.ID != o1[0].ID {
			t.Fatalf("Route(%d) = %v, want first owner %s", v, route, o1[0].ID)
		}
		owned[route.ID]++
	}
	for id, n := range owned {
		frac := float64(n) / videos
		if frac < 0.25 || frac > 0.42 {
			t.Errorf("node %s owns %.1f%% of videos; HRW should balance near 33%%", id, 100*frac)
		}
	}
}

// The HRW property that makes join/leave cheap for a cache cluster:
// adding a node only steals videos (it becomes their owner); every
// video it does not steal keeps its exact owner.
func TestRouterMinimalDisruptionOnJoin(t *testing.T) {
	before := NewRouter(mustMembership(t, threeNodes()))
	after := NewRouter(mustMembership(t, append(threeNodes(), Node{ID: "d", URL: "http://d.example"})))
	moved := 0
	const videos = 4000
	for v := chunk.VideoID(1); v <= videos; v++ {
		b, _ := before.Route(v)
		a, _ := after.Route(v)
		if a.ID != b.ID {
			moved++
			if a.ID != "d" {
				t.Fatalf("video %d moved %s→%s; only the joining node may steal", v, b.ID, a.ID)
			}
		}
	}
	if frac := float64(moved) / videos; frac < 0.15 || frac > 0.35 {
		t.Errorf("join moved %.1f%% of videos, want ≈25%%", 100*frac)
	}
}

func TestRouterFailoverOrderDeterministic(t *testing.T) {
	m := mustMembership(t, threeNodes())
	r := NewRouter(m)
	for v := chunk.VideoID(1); v <= 64; v++ {
		owners := r.Owners(v)
		m.SetAlive(owners[0].ID, false)
		got, ok := r.Route(v)
		if !ok || got.ID != owners[1].ID {
			t.Fatalf("video %d: dead owner must fail over to owners[1]=%s, got %s", v, owners[1].ID, got.ID)
		}
		if ao := r.AliveOwners(v); len(ao) != 2 || ao[0].ID != owners[1].ID || ao[1].ID != owners[2].ID {
			t.Fatalf("video %d: AliveOwners = %v", v, ao)
		}
		m.SetAlive(owners[0].ID, true)
		if got, _ := r.Route(v); got.ID != owners[0].ID {
			t.Fatalf("video %d: revived owner must take back ownership", v)
		}
	}
	for _, n := range threeNodes() {
		m.SetAlive(n.ID, false)
	}
	if _, ok := r.Route(1); ok {
		t.Error("Route with zero alive nodes must report !ok")
	}
}

func TestProberThresholdsAndTransitions(t *testing.T) {
	m := mustMembership(t, threeNodes())
	var mu sync.Mutex
	healthy := map[string]bool{"a": true, "b": true, "c": true}
	p := NewProber(m, ProberConfig{
		Self:          "a",
		FailThreshold: 2,
		OkThreshold:   1,
		Probe: func(_ context.Context, n Node) error {
			mu.Lock()
			defer mu.Unlock()
			if !healthy[n.ID] {
				return errors.New("down")
			}
			return nil
		},
	})
	defer p.Stop()

	mu.Lock()
	healthy["b"] = false
	mu.Unlock()
	p.ProbeNow()
	if !m.Alive("b") {
		t.Fatal("one failed probe must not kill a node (FailThreshold=2)")
	}
	p.ProbeNow()
	if m.Alive("b") {
		t.Fatal("two consecutive failures must mark the node dead")
	}
	if p.Deaths() != 1 {
		t.Errorf("Deaths = %d", p.Deaths())
	}
	if !m.Alive("a") {
		t.Error("self is never probed and stays alive")
	}
	mu.Lock()
	healthy["b"] = true
	mu.Unlock()
	p.ProbeNow()
	if !m.Alive("b") {
		t.Fatal("one good probe must revive (OkThreshold=1)")
	}
	if p.Revivals() != 1 {
		t.Errorf("Revivals = %d", p.Revivals())
	}
}

// Satellite: prober and peer client shutdown must not leak goroutines.
func TestProberAndClientShutdownNoGoroutineLeak(t *testing.T) {
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			fmt.Fprintln(w, "ok")
			return
		}
		w.Write([]byte("chunkbytes"))
	}))
	defer peer.Close()

	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		m := mustMembership(t, []Node{{ID: "self", URL: "http://unused.example"}, {ID: "p", URL: peer.URL}})
		p := NewProber(m, ProberConfig{Self: "self", Interval: time.Millisecond, Timeout: 50 * time.Millisecond})
		p.Start()
		router := NewRouter(m)
		c := NewClient(router, ClientConfig{Self: "self"})
		v := chunk.VideoID(1)
		for ; ; v++ {
			if owner, ok := router.Route(v); ok && owner.ID == "p" {
				break
			}
		}
		if _, err := fetchAll(c, chunk.ID{Video: v}); err != nil {
			t.Fatalf("fetch through live peer: %v", err)
		}
		p.Stop()
		p.Stop() // idempotent
		c.Close()
	}
	// A never-started prober must also stop cleanly.
	NewProber(mustMembership(t, threeNodes()), ProberConfig{}).Stop()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after shutdowns — leak", before, runtime.NumGoroutine())
}

// fakePeer is a scriptable /peer/chunk endpoint.
type fakePeer struct {
	mu       sync.Mutex
	body     []byte
	status   int // 0 → 200 with body
	fail     bool
	requests int
	lastHop  string
}

func (f *fakePeer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	f.requests++
	f.lastHop = r.Header.Get(edge.PeerHopHeader)
	status, body, fail := f.status, f.body, f.fail
	f.mu.Unlock()
	if fail {
		panic(http.ErrAbortHandler)
	}
	if status != 0 {
		http.Error(w, "scripted", status)
		return
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

func (f *fakePeer) snapshot() (int, string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.requests, f.lastHop
}

// clientRig wires a 3-node membership where "self" is one node and the
// other two are fakePeers, with owner order for video v fixed by
// searching for a video whose owners are in the wanted order.
type clientRig struct {
	m      *Membership
	router *Router
	client *Client
	peers  map[string]*fakePeer
	srvs   map[string]*httptest.Server
}

func newClientRig(t *testing.T, cfg ClientConfig) *clientRig {
	t.Helper()
	rig := &clientRig{peers: map[string]*fakePeer{}, srvs: map[string]*httptest.Server{}}
	nodes := []Node{{ID: "self", URL: "http://self.invalid"}}
	for _, id := range []string{"p1", "p2"} {
		fp := &fakePeer{body: []byte("peer bytes")}
		srv := httptest.NewServer(fp)
		t.Cleanup(srv.Close)
		rig.peers[id] = fp
		rig.srvs[id] = srv
		nodes = append(nodes, Node{ID: id, URL: srv.URL})
	}
	rig.m = mustMembership(t, nodes)
	rig.router = NewRouter(rig.m)
	cfg.Self = "self"
	rig.client = NewClient(rig.router, cfg)
	t.Cleanup(rig.client.Close)
	return rig
}

// videoOwnedBy finds a video whose rendezvous order starts with the
// wanted node IDs (deterministic search, deterministic hash).
func (rig *clientRig) videoOwnedBy(t *testing.T, first string, second string) chunk.VideoID {
	t.Helper()
	for v := chunk.VideoID(1); v < 100000; v++ {
		owners := rig.router.Owners(v)
		if owners[0].ID == first && (second == "" || owners[1].ID == second) {
			return v
		}
	}
	t.Fatal("no video with wanted owner order")
	return 0
}

func TestClientSelfOwnerIsImmediateMiss(t *testing.T) {
	rig := newClientRig(t, ClientConfig{})
	v := rig.videoOwnedBy(t, "self", "")
	_, err := fetchAll(rig.client, chunk.ID{Video: v})
	if !errors.Is(err, ErrSelfOwner) {
		t.Fatalf("err = %v, want ErrSelfOwner", err)
	}
	if !errors.Is(err, edge.ErrPeerSelf) {
		t.Error("ErrSelfOwner must read as edge.ErrPeerSelf (uncounted pass-through)")
	}
	for id, fp := range rig.peers {
		if n, _ := fp.snapshot(); n != 0 {
			t.Errorf("peer %s was contacted %d times on a self-owned video", id, n)
		}
	}
}

func TestClientFetchesOwnerWithHopHeader(t *testing.T) {
	rig := newClientRig(t, ClientConfig{})
	v := rig.videoOwnedBy(t, "p1", "")
	data, err := fetchAll(rig.client, chunk.ID{Video: v})
	if err != nil || string(data) != "peer bytes" {
		t.Fatalf("Fetch = %q, %v", data, err)
	}
	if n, hop := rig.peers["p1"].snapshot(); n != 1 || hop != "1" {
		t.Errorf("owner saw %d requests with hop %q, want 1 request with hop \"1\"", n, hop)
	}
}

func TestClient404IsAuthoritativeMiss(t *testing.T) {
	rig := newClientRig(t, ClientConfig{})
	v := rig.videoOwnedBy(t, "p1", "p2")
	rig.peers["p1"].mu.Lock()
	rig.peers["p1"].status = http.StatusNotFound
	rig.peers["p1"].mu.Unlock()
	_, err := fetchAll(rig.client, chunk.ID{Video: v})
	if !errors.Is(err, ErrNotCached) || !errors.Is(err, edge.ErrPeerMiss) {
		t.Fatalf("err = %v, want ErrNotCached (a peer miss)", err)
	}
	// Authoritative: the second owner must not have been bothered.
	if n, _ := rig.peers["p2"].snapshot(); n != 0 {
		t.Errorf("second owner saw %d requests after the owner's 404", n)
	}
}

func TestClientFailsOverToSecondOwner(t *testing.T) {
	rig := newClientRig(t, ClientConfig{Timeout: 200 * time.Millisecond})
	v := rig.videoOwnedBy(t, "p1", "p2")
	rig.peers["p1"].mu.Lock()
	rig.peers["p1"].fail = true // connection aborted: a dying peer
	rig.peers["p1"].mu.Unlock()
	data, err := fetchAll(rig.client, chunk.ID{Video: v})
	if err != nil || string(data) != "peer bytes" {
		t.Fatalf("failover Fetch = %q, %v", data, err)
	}
	if n, _ := rig.peers["p2"].snapshot(); n != 1 {
		t.Errorf("second owner saw %d requests, want 1", n)
	}
}

func TestClientDeadOwnerSkippedByRouting(t *testing.T) {
	rig := newClientRig(t, ClientConfig{})
	v := rig.videoOwnedBy(t, "p1", "p2")
	rig.m.SetAlive("p1", false)
	data, err := fetchAll(rig.client, chunk.ID{Video: v})
	if err != nil || string(data) != "peer bytes" {
		t.Fatalf("Fetch around dead owner = %q, %v", data, err)
	}
	if n, _ := rig.peers["p1"].snapshot(); n != 0 {
		t.Errorf("dead owner was contacted %d times", n)
	}
}

func TestClientBreakerOpensAndSkips(t *testing.T) {
	rig := newClientRig(t, ClientConfig{
		Timeout: 200 * time.Millisecond,
		Breaker: resilience.BreakerConfig{MinSamples: 2, FailureRate: 0.5, OpenFor: time.Hour},
	})
	v := rig.videoOwnedBy(t, "p1", "p2")
	rig.peers["p1"].mu.Lock()
	rig.peers["p1"].fail = true
	rig.peers["p1"].mu.Unlock()
	// Two failing fetches feed p1's breaker to the trip point; both
	// still succeed via the second owner.
	for i := 0; i < 2; i++ {
		if _, err := fetchAll(rig.client, chunk.ID{Video: v, Index: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if st := rig.client.BreakerStates()["p1"]; st != resilience.Open {
		t.Fatalf("p1 breaker = %v, want open", st)
	}
	before, _ := rig.peers["p1"].snapshot()
	if _, err := fetchAll(rig.client, chunk.ID{Video: v, Index: 9}); err != nil {
		t.Fatal(err)
	}
	if after, _ := rig.peers["p1"].snapshot(); after != before {
		t.Error("open breaker must skip the peer without a connection attempt")
	}
	if c := rig.client.Counts(); c.OpenSkips == 0 || c.Hits == 0 {
		t.Errorf("counts: %+v", c)
	}
	if rig.client.BreakerOpens() == 0 {
		t.Error("BreakerOpens must count the trip")
	}
}

func TestClientOversizedPayloadRejected(t *testing.T) {
	rig := newClientRig(t, ClientConfig{MaxChunkBytes: 4})
	v := rig.videoOwnedBy(t, "p1", "p2")
	_, err := fetchAll(rig.client, chunk.ID{Video: v})
	if err == nil || errors.Is(err, edge.ErrPeerMiss) {
		t.Fatalf("oversized payload must be a peer failure, got %v", err)
	}
}
