package edge

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/store"
	"videocdn/internal/xlru"
)

// waitFor polls cond until it holds, failing t after 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// flightsIdle reports whether no fill flight is registered.
func (s *Server) flightsIdle() bool {
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	return len(s.flights) == 0
}

// TestPeerChunkHopGuard: /peer/chunk serves a fetch that took one hop
// and answers 508 to one that took more, or whose hop count does not
// parse, so no misconfigured mesh can relay a fetch in a loop.
func TestPeerChunkHopGuard(t *testing.T) {
	cache, err := xlru.New(core.Config{ChunkSize: testK, DiskChunks: 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	rig := newRig(t, cache, MapCatalog{1: testK})
	if resp, _ := rig.get(t, 1, 0, testK-1); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up: status %d", resp.StatusCode)
	}
	for _, c := range []struct {
		hop  string
		want int
	}{{"2", http.StatusLoopDetected}, {"x", http.StatusLoopDetected}, {"1", http.StatusOK}} {
		req, err := http.NewRequest(http.MethodGet, rig.edgeSrv.URL+"/peer/chunk?v=1&c=0", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(PeerHopHeader, c.hop)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != c.want {
			t.Errorf("hop %q: status %d, want %d", c.hop, resp.StatusCode, c.want)
		}
		if c.want == http.StatusOK && !bytes.Equal(body, expected(1, 0, testK-1)) {
			t.Errorf("hop %q: %d bytes, not the chunk", c.hop, len(body))
		}
	}
	if st := rig.edge.SnapshotStats(); st.PeerServes != 1 {
		t.Errorf("PeerServes = %d, want 1", st.PeerServes)
	}
}

// stalledPeer is a peer tier that answers nothing until the fill's
// deadline ends.
type stalledPeer struct{}

func (stalledPeer) FetchStream(ctx context.Context, _ chunk.ID, _ func(io.Reader) (int64, error)) (int64, error) {
	<-ctx.Done()
	return 0, ctx.Err()
}

// TestPeerFillExpiredDeadline: a peer attempt that outlives the fill
// deadline ends the fill. The run's other chunks are not offered to
// the peer tier again, the origin gets no fill request, and the
// request degrades to a 302 counted as one fill error — not as a peer
// failure per chunk.
func TestPeerFillExpiredDeadline(t *testing.T) {
	cache, err := xlru.New(core.Config{ChunkSize: testK, DiskChunks: 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewOrigin(MapCatalog{1: 3 * testK}, testK)
	if err != nil {
		t.Fatal(err)
	}
	origin := &countingOrigin{inner: o}
	originSrv := httptest.NewServer(origin)
	defer originSrv.Close()
	s, err := NewServer(Config{
		CacheFactory: Prebuilt(cache), Store: store.NewMem(),
		OriginURL: originSrv.URL, RedirectURL: "http://secondary.example",
		ChunkSize: testK, Alpha: 1, Clock: func() int64 { return 0 },
		FillTimeout: 50 * time.Millisecond,
		PeerFill:    stalledPeer{},
	})
	if err != nil {
		t.Fatal(err)
	}
	edgeSrv := httptest.NewServer(s)
	defer edgeSrv.Close()
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	resp, err := client.Get(fmt.Sprintf("%s/video?v=1&start=0&end=%d", edgeSrv.URL, 3*testK-1))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusFound {
		t.Errorf("status %d, want 302", resp.StatusCode)
	}
	waitFor(t, "the fill flight to end", s.flightsIdle)
	origin.mu.Lock()
	if len(origin.fills) != 0 {
		t.Errorf("origin got fill requests %v, want none", origin.fills)
	}
	origin.mu.Unlock()
	st := s.SnapshotStats()
	if st.FillErrors != 1 || st.PeerFillErrors != 0 || st.DegradedRedirects != 1 {
		t.Errorf("fill_errors %d, peer_fill_errors %d, degraded %d; want 1, 0, 1", st.FillErrors, st.PeerFillErrors, st.DegradedRedirects)
	}
}
