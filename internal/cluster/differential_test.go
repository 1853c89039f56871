package cluster

// Differential gate: a cluster of one is not allowed to exist. A
// single-node cluster — full wiring: membership, router, peer client,
// prober — must be byte-identical to a standalone edge.Server, on
// every /video response, on /stats, and on /metrics. This pins the
// no-op property of the whole peer tier: the C_P term, the peer
// counters, and the self-owner short-circuit must all vanish exactly
// when there is no peer to talk to.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/edge"
	"videocdn/internal/store"
	"videocdn/internal/xlru"
)

// diffSide is one half of the differential: a served edge plus a
// non-redirect-following client.
type diffSide struct {
	base  string
	httpc *http.Client
}

func newDiffSide(t *testing.T, clustered bool) *diffSide {
	t.Helper()
	catalog := edge.DeterministicCatalog{MinBytes: 2 * testK, MaxBytes: 6 * testK}
	o, err := edge.NewOrigin(catalog, testK)
	if err != nil {
		t.Fatal(err)
	}
	originSrv := httptest.NewServer(o)
	t.Cleanup(originSrv.Close)
	cache, err := xlru.New(core.Config{ChunkSize: testK, DiskChunks: 64}, testAlpha)
	if err != nil {
		t.Fatal(err)
	}
	cfg := edge.Config{
		CacheFactory: edge.Prebuilt(cache), Store: store.NewMem(),
		OriginURL: originSrv.URL, RedirectURL: "http://secondary.example",
		ChunkSize: testK, Alpha: testAlpha,
		NodeID: "solo",
	}
	var clk atomic64
	cfg.Clock = clk.next

	late := &lateHandler{}
	srv := httptest.NewServer(late)
	t.Cleanup(srv.Close)
	if clustered {
		m := mustMembership(t, []Node{{ID: "solo", URL: srv.URL}})
		client := NewClient(NewRouter(m), ClientConfig{Self: "solo"})
		t.Cleanup(client.Close)
		p := NewProber(m, ProberConfig{Self: "solo", Interval: 5 * time.Millisecond})
		p.Start()
		t.Cleanup(p.Stop)
		cfg.PeerFill = client
		cfg.PeerAlpha = testAlphaP
	}
	s, err := edge.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	late.set(s)
	return &diffSide{base: srv.URL, httpc: &http.Client{
		CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
	}}
}

// fetch returns the comparable essence of one response: status, the
// content-bearing headers, and the body.
func (d *diffSide) fetch(t *testing.T, path string) string {
	t.Helper()
	resp, err := d.httpc.Get(d.base + path)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return fmt.Sprintf("status=%d cl=%q ct=%q cr=%q loc=%q body=%q",
		resp.StatusCode,
		resp.Header.Get("Content-Length"), resp.Header.Get("Content-Type"),
		resp.Header.Get("Content-Range"), resp.Header.Get("Location"),
		body)
}

func TestClusterOfOneIsByteIdenticalToStandalone(t *testing.T) {
	standalone := newDiffSide(t, false)
	clustered := newDiffSide(t, true)

	catalog := edge.DeterministicCatalog{MinBytes: 2 * testK, MaxBytes: 6 * testK}
	var paths []string
	for v := chunk.VideoID(1); v <= 30; v++ {
		size, _ := catalog.SizeOf(v)
		paths = append(paths,
			fmt.Sprintf("/video?v=%d", v),                            // full video
			fmt.Sprintf("/video?v=%d&start=%d&end=%d", v, 1, size/2), // partial range
		)
	}
	// Re-request a prefix: cache hits, evictions and redirect decisions
	// must also coincide.
	for v := chunk.VideoID(1); v <= 10; v++ {
		paths = append(paths, fmt.Sprintf("/video?v=%d", v))
	}
	for _, p := range paths {
		a, b := standalone.fetch(t, p), clustered.fetch(t, p)
		if a != b {
			t.Fatalf("divergence on %s:\nstandalone: %s\nclustered:  %s", p, a, b)
		}
	}
	for _, p := range []string{"/stats", "/metrics", "/healthz"} {
		a, b := standalone.fetch(t, p), clustered.fetch(t, p)
		if a != b {
			t.Errorf("divergence on %s:\nstandalone: %s\nclustered:  %s", p, a, b)
		}
	}
}
