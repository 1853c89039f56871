package cluster

// Cluster chaos: a 3-node edge cluster over one healthy origin, with
// deterministic fault injection (FaultPeer) between the nodes. The
// acceptance scenario hard-kills one peer and slows/truncates another
// mid-run and asserts the failure-aware contract: clients only ever
// see 200/206/302, the killed node's videos rebalance to survivors,
// per-peer breakers open → probe → close across the outage, and the
// cluster-wide extended Eq. 2 identity (including the C_P peer term)
// reconciles bit-exactly against the per-node ledgers. Run via
// `make chaos-cluster`.

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/cost"
	"videocdn/internal/edge"
	"videocdn/internal/resilience"
	"videocdn/internal/store"
	"videocdn/internal/xlru"
)

const testK = int64(1024)

const (
	testAlpha  = 1.0
	testAlphaP = 0.5
)

// lateHandler lets a node's HTTP listener exist before the edge server
// behind it (the peer client needs every node's URL, and the edge
// needs the peer client — lateHandler breaks the cycle).
type lateHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (l *lateHandler) set(h http.Handler) {
	l.mu.Lock()
	l.h = h
	l.mu.Unlock()
}

func (l *lateHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	l.mu.RLock()
	h := l.h
	l.mu.RUnlock()
	if h == nil {
		http.Error(w, "node still booting", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

type clusterNode struct {
	id     string
	edge   *edge.Server
	srv    *httptest.Server
	fault  *FaultPeer
	client *Client
}

type clusterRig struct {
	catalog   edge.DeterministicCatalog
	origin    *edge.FaultOrigin
	originSrv *httptest.Server
	m         *Membership
	router    *Router
	prober    *Prober
	agg       *Aggregator
	nodes     []*clusterNode
	byID      map[string]*clusterNode
	httpc     *http.Client // does not follow redirects
}

func peerBreaker() resilience.BreakerConfig {
	return resilience.BreakerConfig{
		Window: time.Minute, MinSamples: 3, FailureRate: 0.5,
		OpenFor: 100 * time.Millisecond, MaxProbes: 1, ProbesToClose: 1,
	}
}

// noStreamStore hides the store's optional capabilities, PutStream
// among them: the node over it reads every fill whole and Puts it.
type noStreamStore struct{ store.Store }

// newClusterRig wires one edge per id into a shared membership; the
// nodes named in buffered get a store without PutStream.
func newClusterRig(t *testing.T, ids []string, buffered ...string) *clusterRig {
	t.Helper()
	rig := &clusterRig{
		catalog: edge.DeterministicCatalog{MinBytes: 2 * testK, MaxBytes: 6 * testK},
		byID:    map[string]*clusterNode{},
		httpc: &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
			return http.ErrUseLastResponse
		}},
	}
	o, err := edge.NewOrigin(rig.catalog, testK)
	if err != nil {
		t.Fatal(err)
	}
	rig.origin = edge.NewFaultOrigin(o, edge.FaultConfig{}) // healthy; the chaos is between peers
	rig.originSrv = httptest.NewServer(rig.origin)
	t.Cleanup(rig.originSrv.Close)

	// Listeners first (FaultPeer around a lateHandler), so the shared
	// membership can carry every node's real URL before any edge exists.
	var members []Node
	lates := make([]*lateHandler, len(ids))
	for i, id := range ids {
		lates[i] = &lateHandler{}
		n := &clusterNode{id: id, fault: NewFaultPeer(lates[i], FaultPeerConfig{Seed: int64(1000 + i)})}
		n.srv = httptest.NewServer(n.fault)
		t.Cleanup(n.srv.Close)
		rig.nodes = append(rig.nodes, n)
		rig.byID[id] = n
		members = append(members, Node{ID: id, URL: n.srv.URL})
	}
	rig.m = mustMembership(t, members)
	rig.router = NewRouter(rig.m)

	for i, n := range rig.nodes {
		n.client = NewClient(rig.router, ClientConfig{
			Self:    n.id,
			Timeout: 30 * time.Millisecond, // well under the slow-peer spike: deadlines cut losses
			Breaker: peerBreaker(),
		})
		nc := n.client
		t.Cleanup(func() { nc.Close() })
		cache, err := xlru.New(core.Config{ChunkSize: testK, DiskChunks: 4096}, testAlpha)
		if err != nil {
			t.Fatal(err)
		}
		var clk atomic64
		var st store.Store = store.NewMem()
		for _, id := range buffered {
			if id == n.id {
				st = noStreamStore{st}
			}
		}
		srv, err := edge.NewServer(edge.Config{
			Cache: cache, Store: st,
			OriginURL: rig.originSrv.URL, RedirectURL: "http://secondary.example",
			ChunkSize: testK, Alpha: testAlpha,
			Clock:       clk.next,
			FillTimeout: 5 * time.Second,
			Retry:       resilience.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond},
			Breaker:     resilience.BreakerConfig{MinSamples: math.MaxInt32},
			PeerFill:    n.client, PeerAlpha: testAlphaP,
			NodeID: n.id,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		n.edge = srv
		lates[i].set(srv)
	}

	// One prober models the cluster's shared health view ("-driver-" is
	// no node's ID, so all members get probed). Fast cadence for tests.
	rig.prober = NewProber(rig.m, ProberConfig{
		Self: "-driver-", Interval: 5 * time.Millisecond, Timeout: 500 * time.Millisecond,
		FailThreshold: 2, OkThreshold: 1,
	})
	t.Cleanup(rig.prober.Stop)

	model, err := cost.NewModel(testAlpha)
	if err != nil {
		t.Fatal(err)
	}
	if model, err = model.WithPeer(testAlphaP); err != nil {
		t.Fatal(err)
	}
	rig.agg = NewAggregator(rig.m, AggregatorConfig{Model: model})
	return rig
}

// atomic64 is a tiny deterministic clock: every call is one second
// later (matches the edge test idiom).
type atomic64 struct {
	mu sync.Mutex
	n  int64
}

func (a *atomic64) next() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.n++
	return a.n
}

// expected rebuilds the byte-exact ground truth for v's [start,end]
// range from the deterministic chunk generator.
func expected(v chunk.VideoID, start, end int64) []byte {
	out := make([]byte, 0, end-start+1)
	buf := make([]byte, testK)
	for c := uint32(start / testK); c <= uint32(end/testK); c++ {
		edge.ChunkData(v, c, buf)
		lo := int64(c) * testK
		from, to := int64(0), testK-1
		if lo < start {
			from = start - lo
		}
		if lo+to > end {
			to = end - lo
		}
		out = append(out, buf[from:to+1]...)
	}
	return out
}

func (rig *clusterRig) sizeOf(v chunk.VideoID) int64 {
	size, _ := rig.catalog.SizeOf(v)
	return size
}

// get fetches v's full body from one node and enforces the client
// contract: only 200/206/302, and 2xx bodies byte-exact.
func (rig *clusterRig) get(t *testing.T, n *clusterNode, v chunk.VideoID) int {
	t.Helper()
	size := rig.sizeOf(v)
	resp, err := rig.httpc.Get(fmt.Sprintf("%s/video?v=%d&start=0&end=%d", n.srv.URL, v, size-1))
	if err != nil {
		t.Fatalf("node %s video %d: transport error: %v", n.id, v, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("node %s video %d: body error: %v", n.id, v, err)
	}
	switch resp.StatusCode {
	case http.StatusOK, http.StatusPartialContent:
		if want := expected(v, 0, size-1); string(body) != string(want) {
			t.Fatalf("node %s video %d: body mismatch (%d bytes, want %d)", n.id, v, len(body), len(want))
		}
	case http.StatusFound:
		// Second line of defense: the alternative location.
	default:
		t.Fatalf("node %s video %d: client-visible status %d", n.id, v, resp.StatusCode)
	}
	return resp.StatusCode
}

// ownerOf returns the node currently routed for v (all-alive routing
// uses the full rendezvous order).
func (rig *clusterRig) ownerOf(t *testing.T, v chunk.VideoID) *clusterNode {
	t.Helper()
	n, ok := rig.router.Route(v)
	if !ok {
		t.Fatal("no alive node")
	}
	return rig.byID[n.ID]
}

// survivorFor returns an alive node other than skip, preferring one
// that is not the video's owner (so a fetch exercises the peer line).
func (rig *clusterRig) survivorFor(v chunk.VideoID, skip string) *clusterNode {
	owner, _ := rig.router.Route(v)
	for _, n := range rig.nodes {
		if n.id != skip && n.id != owner.ID && !n.fault.Down() {
			return n
		}
	}
	for _, n := range rig.nodes {
		if n.id != skip && !n.fault.Down() {
			return n
		}
	}
	return nil
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// videosOwnedBy collects n videos whose rendezvous order (liveness
// aside) puts id first — the node's home keys whether it is up or not.
func (rig *clusterRig) videosOwnedBy(t *testing.T, id string, n int, from chunk.VideoID) []chunk.VideoID {
	t.Helper()
	var out []chunk.VideoID
	for v := from; len(out) < n && v < from+100000; v++ {
		if owners := rig.router.Owners(v); len(owners) > 0 && owners[0].ID == id {
			out = append(out, v)
		}
	}
	if len(out) < n {
		t.Fatalf("found only %d/%d videos owned by %s", len(out), n, id)
	}
	return out
}

// reconcile sums the per-node ledgers and asserts the cluster-wide
// extended Eq. 2 identity is bit-exact: the aggregator's efficiency
// must equal the one recomputed here from the integer sums, and the
// integer sums must match the per-node /stats exactly.
func (rig *clusterRig) reconcile(t *testing.T) ClusterStats {
	t.Helper()
	snap := rig.agg.Snapshot(context.Background())
	var sum cost.Counters
	var peerServed int64
	for _, ns := range snap.Nodes {
		if ns.Stats == nil {
			t.Fatalf("node %s: stats unreachable: %s", ns.Node.ID, ns.Err)
		}
		sum.Add(cost.Counters{
			Requested:  ns.Stats.RequestedBytes,
			Filled:     ns.Stats.FilledBytes,
			Redirected: ns.Stats.RedirectedBytes,
			PeerFilled: ns.Stats.PeerFilledBytes,
		})
		peerServed += ns.Stats.PeerServedBytes
	}
	if snap.RequestedBytes != sum.Requested || snap.FilledBytes != sum.Filled ||
		snap.RedirectedBytes != sum.Redirected || snap.PeerFilledBytes != sum.PeerFilled ||
		snap.PeerServedBytes != peerServed {
		t.Fatalf("aggregate sums diverge from per-node ledgers: %+v vs %+v", snap, sum)
	}
	model, _ := cost.NewModel(testAlpha)
	model, _ = model.WithPeer(testAlphaP)
	if want := sum.Efficiency(model); snap.Efficiency != want {
		t.Fatalf("cluster efficiency %v not bit-exact against per-node ledgers (want %v)", snap.Efficiency, want)
	}
	// Cross-system ground truth: every origin-filled byte on any node
	// is a fully delivered origin chunk byte, and vice versa.
	if got := rig.origin.Counts().ChunkBytesOK; sum.Filled != got {
		t.Fatalf("ΣFilledBytes %d != origin ChunkBytesOK %d", sum.Filled, got)
	}
	// Peer bytes are conserved: a node charges PeerFilled only on a
	// committed Put, a server counts PeerServed on a full write — a
	// truncated transfer inflates neither the filling side nor the
	// identity.
	if sum.PeerFilled > peerServed {
		t.Fatalf("ΣPeerFilledBytes %d > ΣPeerServedBytes %d", sum.PeerFilled, peerServed)
	}
	return snap
}

// TestChaosClusterStreamingTruncation aims the chaos straight at the
// peer-fill pipeline: every peer link truncates half its /peer/chunk
// bodies mid-stream and aborts the connection, so fills die after
// bytes have already flowed through the fixed scratch buffer into the
// local store (n2, n3) or into the whole-chunk read of a store that
// cannot stream (n1). The contract: clients still only ever see
// 200/206/302 with byte-exact bodies, every truncated stream rolls
// back (no PeerFilled charge, no stored bytes), innocent failovers land
// on the origin, and the cluster-wide Eq. 2 ledger stays bit-exact.
func TestChaosClusterStreamingTruncation(t *testing.T) {
	rig := newClusterRig(t, []string{"n1", "n2", "n3"}, "n1")
	statuses := map[int]int{}

	// Warm the owners so phase 2's non-owner requests must use the
	// peer line.
	videos := make([]chunk.VideoID, 0, 24)
	for v := chunk.VideoID(1); v <= 24; v++ {
		videos = append(videos, v)
		statuses[rig.get(t, rig.ownerOf(t, v), v)]++
	}

	// Every peer link now truncates half the chunk bodies it serves.
	for i, n := range rig.nodes {
		n.fault.SetConfig(FaultPeerConfig{Seed: int64(100 + i), TruncateRate: 0.5})
	}
	for _, v := range videos {
		statuses[rig.get(t, rig.survivorFor(v, ""), v)]++
	}
	var truncations int64
	for _, n := range rig.nodes {
		truncations += n.fault.Counts().Truncations
	}
	if truncations == 0 {
		t.Fatal("truncation injection inactive — the chaos tested nothing")
	}
	// Every fill that landed, origin or peer, is counted once, by how
	// the node's store took it: over a store that streams the buffered
	// fallback must be idle, over n1's, which cannot, the streaming path.
	// Nothing is evicted or refilled here, so the chunks a node caches
	// are the fills it committed.
	var peerFilled int64
	for _, n := range rig.nodes {
		sp, st := n.edge.ServePathStats(), n.edge.SnapshotStats()
		used, idle := sp.StreamFills, sp.BufferedFills
		if n.id == "n1" {
			used, idle = idle, used
			if st.PeerFills == 0 {
				t.Error("n1 committed no peer fill — its buffered sink went untested")
			}
		}
		if idle != 0 {
			t.Errorf("%s: %d fills took the path its store does not offer", n.id, idle)
		}
		if used != int64(st.CachedChunks) {
			t.Errorf("%s: %d fills counted for %d cached chunks (%d of them peer fills)",
				n.id, used, st.CachedChunks, st.PeerFills)
		}
		peerFilled += st.PeerFilledBytes
	}
	if peerFilled == 0 {
		t.Error("peer line moved zero bytes despite ~half the transfers surviving")
	}

	// Links heal; traffic converges, then the ledger must reconcile
	// bit-exactly: a mid-stream truncation may charge neither PeerFilled
	// (nothing committed) nor Filled beyond what the origin fully
	// delivered to the failed-over fills.
	for _, n := range rig.nodes {
		n.fault.SetConfig(FaultPeerConfig{})
	}
	for i, v := range videos {
		statuses[rig.get(t, rig.nodes[i%3], v)]++
	}
	rig.reconcile(t)
	for code := range statuses {
		if code != http.StatusOK && code != http.StatusPartialContent && code != http.StatusFound {
			t.Errorf("client-visible status %d (%d times)", code, statuses[code])
		}
	}
	if statuses[http.StatusOK]+statuses[http.StatusPartialContent] == 0 {
		t.Error("no 2xx at all — the chaos drowned the cluster")
	}
}

// TestChaosClusterKillAndSlow is the PR's acceptance scenario.
func TestChaosClusterKillAndSlow(t *testing.T) {
	rig := newClusterRig(t, []string{"n1", "n2", "n3"})
	statuses := map[int]int{}

	// Phase 1 — warm the owners: every video origin-fills on the node
	// that owns it.
	videos := make([]chunk.VideoID, 0, 40)
	for v := chunk.VideoID(1); v <= 40; v++ {
		videos = append(videos, v)
		statuses[rig.get(t, rig.ownerOf(t, v), v)]++
	}

	// Phase 2 — peer fills: the same videos requested on a non-owner
	// must arrive over the cheap intra-cluster line, not the origin.
	ingressBefore := rig.origin.Counts().ChunkBytesOK
	for _, v := range videos {
		statuses[rig.get(t, rig.survivorFor(v, ""), v)]++
	}
	var peerFilled int64
	for _, n := range rig.nodes {
		peerFilled += n.edge.SnapshotStats().PeerFilledBytes
	}
	if peerFilled == 0 {
		t.Fatal("peer line moved zero bytes in the peer-fill phase")
	}
	if grew := rig.origin.Counts().ChunkBytesOK - ingressBefore; grew >= peerFilled {
		t.Errorf("peer-fill phase leaned on the origin (%d origin bytes vs %d peer bytes)", grew, peerFilled)
	}
	rig.reconcile(t)

	// Phase 3 — hard-kill n3. Before the health view catches up, feed
	// a survivor's peer client deterministic failures: the per-peer
	// breaker must trip (first line of failure handling, faster than
	// the prober). n2's n3-breaker is fresh — phase 2 routed all of
	// n2's peer fetches to n1 — so three failures cross the rate.
	victim := rig.byID["n3"]
	victim.fault.SetDown(true)
	n2 := rig.byID["n2"]
	doomed := rig.videosOwnedBy(t, "n3", 4, 5000)
	for _, v := range doomed[:3] {
		if _, err := fetchAll(n2.client, chunk.ID{Video: v}); err == nil {
			t.Fatal("fetch from a killed peer must fail")
		}
	}
	if st := n2.client.BreakerStates()["n3"]; st != resilience.Open {
		t.Fatalf("n3 breaker on n2 = %v, want open after a killed peer", st)
	}
	if n2.client.BreakerOpens() == 0 {
		t.Fatal("breaker trip not counted")
	}

	// Phase 4 — the prober notices the death and the router rehashes
	// around it; a slow+truncating n2 degrades the peer line without
	// ever touching what clients see.
	rig.prober.Start()
	waitFor(t, "prober to mark n3 dead", func() bool { return !rig.m.Alive("n3") })
	if rig.prober.Deaths() == 0 {
		t.Fatal("death not counted")
	}
	slow := rig.byID["n2"]
	slow.fault.SetConfig(FaultPeerConfig{Seed: 7, LatencyRate: 0.5, Latency: 60 * time.Millisecond, TruncateRate: 0.4})

	// Killed-node keys rebalance: n3's videos now route to survivors
	// and serve there, byte-exact.
	for _, v := range rig.videosOwnedBy(t, "n3", 8, 1) {
		n, ok := rig.router.Route(v)
		if !ok || n.ID == "n3" {
			t.Fatalf("video %d still routed to the dead node", v)
		}
		statuses[rig.get(t, rig.byID[n.ID], v)]++
	}
	// Mid-run chaos traffic across the two survivors, old and new keys.
	for i, v := range append(videos, rig.videosOwnedBy(t, "n3", 10, 6000)...) {
		n := rig.nodes[i%2] // n1, n2 — the driver (a real LB) skips dead nodes
		statuses[rig.get(t, n, v)]++
	}
	// The aggregator itself is failure-aware: the dead node becomes an
	// error entry, not a failed report (its ledger reconciles after
	// resurrection, below).
	midSnap := rig.agg.Snapshot(context.Background())
	if midSnap.NodesAlive != 2 {
		t.Errorf("NodesAlive = %d with one node killed", midSnap.NodesAlive)
	}
	for _, ns := range midSnap.Nodes {
		if ns.Node.ID == "n3" && (ns.Stats != nil || ns.Err == "" || ns.Alive) {
			t.Errorf("dead node's aggregate entry should be an error: %+v", ns)
		}
	}

	// Phase 5 — resurrection: the prober revives n3, and the opened
	// breaker closes through its half-open probe (open → probe →
	// close) once a peer fetch succeeds again.
	victim.fault.SetDown(false)
	slow.fault.SetConfig(FaultPeerConfig{})
	waitFor(t, "prober to revive n3", func() bool { return rig.m.Alive("n3") })
	if rig.prober.Revivals() == 0 {
		t.Fatal("revival not counted")
	}
	probe := doomed[3]
	statuses[rig.get(t, victim, probe)]++ // warm the revived owner
	time.Sleep(150 * time.Millisecond)    // past the breaker's OpenFor
	waitFor(t, "n2's n3 breaker to close", func() bool {
		_, _ = fetchAll(n2.client, chunk.ID{Video: probe})
		return n2.client.BreakerStates()["n3"] == resilience.Closed
	})

	// Phase 6 — steady state again: traffic across all three nodes,
	// then the final bit-exact reconciliation.
	for i, v := range videos {
		statuses[rig.get(t, rig.nodes[i%3], v)]++
	}
	snap := rig.reconcile(t)
	if snap.NodesAlive != 3 {
		t.Errorf("NodesAlive = %d after resurrection", snap.NodesAlive)
	}
	if snap.PeerFilledBytes == 0 || snap.Efficiency <= 0 {
		t.Errorf("cluster snapshot implausible: %+v", snap)
	}
	for code := range statuses {
		if code != http.StatusOK && code != http.StatusPartialContent && code != http.StatusFound {
			t.Errorf("client-visible status %d (%d times)", code, statuses[code])
		}
	}
	if statuses[http.StatusOK]+statuses[http.StatusPartialContent] == 0 {
		t.Error("no 2xx at all — the chaos drowned the cluster")
	}
}
