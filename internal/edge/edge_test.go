package edge

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"videocdn/internal/cafe"
	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/store"
	"videocdn/internal/xlru"
)

const testK = 1024

// testRig wires origin + edge with an injectable clock.
type testRig struct {
	origin   *httptest.Server
	edge     *Server
	edgeSrv  *httptest.Server
	now      int64
	nowMu    sync.Mutex
	catalog  Catalog
	cache    core.Cache
	chunkStr store.Store
}

func newRig(t *testing.T, c core.Cache, catalog Catalog) *testRig {
	t.Helper()
	o, err := NewOrigin(catalog, testK)
	if err != nil {
		t.Fatal(err)
	}
	rig := &testRig{catalog: catalog, cache: c, chunkStr: store.NewMem()}
	rig.origin = httptest.NewServer(o)
	t.Cleanup(rig.origin.Close)
	s, err := NewServer(Config{
		CacheFactory: Prebuilt(c),
		Store:        rig.chunkStr,
		OriginURL:    rig.origin.URL,
		RedirectURL:  "http://secondary.example",
		ChunkSize:    testK,
		Alpha:        2,
		Clock: func() int64 {
			rig.nowMu.Lock()
			defer rig.nowMu.Unlock()
			return rig.now
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rig.edge = s
	rig.edgeSrv = httptest.NewServer(s)
	t.Cleanup(rig.edgeSrv.Close)
	return rig
}

func (r *testRig) advance(d int64) {
	r.nowMu.Lock()
	r.now += d
	r.nowMu.Unlock()
}

// get fetches a byte range without following redirects.
func (r *testRig) get(t *testing.T, v chunk.VideoID, start, end int64) (*http.Response, []byte) {
	t.Helper()
	url := fmt.Sprintf("%s/video?v=%d&start=%d&end=%d", r.edgeSrv.URL, v, start, end)
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// expected is bytes [start, end] of video v at the tests' chunk size,
// from the reference content loop.
func expected(v chunk.VideoID, start, end int64) []byte {
	return refRange(v, testK, start, end)
}

func TestOriginChunkDeterminism(t *testing.T) {
	a := make([]byte, testK)
	b := make([]byte, testK)
	ChunkData(7, 3, a)
	ChunkData(7, 3, b)
	if !bytes.Equal(a, b) {
		t.Error("chunk data must be deterministic")
	}
	ChunkData(7, 4, b)
	if bytes.Equal(a, b) {
		t.Error("different chunks must differ")
	}
}

func TestOriginEndpoints(t *testing.T) {
	catalog := MapCatalog{5: 3 * testK / 2} // 1.5 chunks
	o, err := NewOrigin(catalog, testK)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(o)
	defer srv.Close()

	// size
	resp, err := http.Get(srv.URL + "/size?v=5")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != fmt.Sprintf("%d", 3*testK/2) {
		t.Errorf("size = %s", body)
	}
	// full chunk
	resp, _ = http.Get(srv.URL + "/chunk?v=5&c=0")
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(body) != testK {
		t.Errorf("chunk 0 len = %d", len(body))
	}
	// short final chunk
	resp, _ = http.Get(srv.URL + "/chunk?v=5&c=1")
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(body) != testK/2 {
		t.Errorf("chunk 1 len = %d, want %d", len(body), testK/2)
	}
	// beyond EOF
	resp, _ = http.Get(srv.URL + "/chunk?v=5&c=2")
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
		t.Errorf("beyond-EOF chunk status = %d", resp.StatusCode)
	}
	// unknown video
	resp, _ = http.Get(srv.URL + "/size?v=99")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown video status = %d", resp.StatusCode)
	}
	// bad params
	resp, _ = http.Get(srv.URL + "/chunk?v=zzz")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad param status = %d", resp.StatusCode)
	}
	// ranged video fetch
	req, _ := http.NewRequest("GET", srv.URL+"/video?v=5", nil)
	req.Header.Set("Range", "bytes=100-299")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent {
		t.Errorf("range status = %d", resp.StatusCode)
	}
	if !bytes.Equal(body, expected(5, 100, 299)) {
		t.Error("ranged body mismatch")
	}
}

func TestEdgeWarmupServeAndHit(t *testing.T) {
	cache, err := xlru.New(core.Config{ChunkSize: testK, DiskChunks: 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	catalog := MapCatalog{1: 4 * testK}
	rig := newRig(t, cache, catalog)

	resp, body := rig.get(t, 1, 0, 2*testK-1)
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if !bytes.Equal(body, expected(1, 0, 2*testK-1)) {
		t.Error("served bytes mismatch with origin content")
	}
	if rig.chunkStr.Len() != 2 {
		t.Errorf("store holds %d chunks, want 2", rig.chunkStr.Len())
	}
	// Second fetch: hit, no new chunks.
	rig.advance(10)
	_, body2 := rig.get(t, 1, 0, 2*testK-1)
	if !bytes.Equal(body2, body) {
		t.Error("hit returned different bytes")
	}
	st := rig.edge.SnapshotStats()
	if st.Served != 2 || st.Redirected != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.FilledBytes != 2*testK {
		t.Errorf("FilledBytes = %d", st.FilledBytes)
	}
}

func TestEdgeRedirects(t *testing.T) {
	// Cafe on a full disk redirects never-seen videos.
	cache, err := cafe.New(core.Config{ChunkSize: testK, DiskChunks: 2}, 2, cafe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	catalog := DeterministicCatalog{MinBytes: 4 * testK, MaxBytes: 8 * testK}
	rig := newRig(t, cache, catalog)

	// Fill the 2-chunk disk with video 1.
	rig.get(t, 1, 0, 2*testK-1)
	rig.advance(5)
	rig.get(t, 1, 0, 2*testK-1)
	rig.advance(5)
	// Never-seen video 2 must be 302'd to the secondary.
	resp, _ := rig.get(t, 2, 0, testK-1)
	if resp.StatusCode != http.StatusFound {
		t.Fatalf("status = %d, want 302", resp.StatusCode)
	}
	loc := resp.Header.Get("Location")
	want := fmt.Sprintf("http://secondary.example/video?v=2&start=0&end=%d", testK-1)
	if loc != want {
		t.Errorf("Location = %q, want %q", loc, want)
	}
	st := rig.edge.SnapshotStats()
	if st.Redirected != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestEdgeEvictionDeletesFromStore(t *testing.T) {
	cache, err := xlru.New(core.Config{ChunkSize: testK, DiskChunks: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	catalog := MapCatalog{1: 2 * testK, 2: 2 * testK}
	rig := newRig(t, cache, catalog)

	rig.get(t, 1, 0, 2*testK-1) // fills 1/0, 1/1
	rig.advance(100)
	rig.get(t, 2, 0, 2*testK-1) // first sight: redirect (disk full)
	rig.advance(1)
	rig.get(t, 2, 0, 2*testK-1) // admitted: evicts video 1's chunks
	if rig.chunkStr.Has(chunk.ID{Video: 1, Index: 0}) || rig.chunkStr.Has(chunk.ID{Video: 1, Index: 1}) {
		t.Error("evicted chunks should be deleted from the store")
	}
	if !rig.chunkStr.Has(chunk.ID{Video: 2, Index: 0}) {
		t.Error("admitted chunks should be in the store")
	}
	if rig.chunkStr.Len() != 2 {
		t.Errorf("store len = %d, want 2", rig.chunkStr.Len())
	}
}

func TestEdgeSelfHealsMissingStoreChunk(t *testing.T) {
	cache, err := xlru.New(core.Config{ChunkSize: testK, DiskChunks: 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	catalog := MapCatalog{1: 2 * testK}
	rig := newRig(t, cache, catalog)
	rig.get(t, 1, 0, 2*testK-1)
	// Sabotage: remove a chunk's bytes behind the cache's back.
	if err := rig.chunkStr.Delete(chunk.ID{Video: 1, Index: 1}); err != nil {
		t.Fatal(err)
	}
	rig.advance(5)
	resp, body := rig.get(t, 1, 0, 2*testK-1)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if !bytes.Equal(body, expected(1, 0, 2*testK-1)) {
		t.Error("self-healed bytes mismatch")
	}
}

func TestEdgeStatsEndpoint(t *testing.T) {
	cache, err := xlru.New(core.Config{ChunkSize: testK, DiskChunks: 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	rig := newRig(t, cache, MapCatalog{1: testK})
	rig.get(t, 1, 0, testK-1)
	resp, err := http.Get(rig.edgeSrv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Algorithm != "xlru" || st.Served != 1 || st.CachedChunks != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// countingOrigin counts fill requests (a chunk by index, a run by byte
// range), by query, to expose duplicate fills.
type countingOrigin struct {
	inner http.Handler
	mu    sync.Mutex
	fills map[string]int
}

func (c *countingOrigin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/chunk" || r.URL.Path == "/video" {
		c.mu.Lock()
		if c.fills == nil {
			c.fills = map[string]int{}
		}
		c.fills[r.URL.RawQuery]++
		c.mu.Unlock()
	}
	c.inner.ServeHTTP(w, r)
}

func TestConcurrentFillsCoalesced(t *testing.T) {
	cache, err := xlru.New(core.Config{ChunkSize: testK, DiskChunks: 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewOrigin(MapCatalog{1: 4 * testK}, testK)
	if err != nil {
		t.Fatal(err)
	}
	counting := &countingOrigin{inner: o}
	origin := httptest.NewServer(counting)
	defer origin.Close()
	now := int64(0)
	var nowMu sync.Mutex
	s, err := NewServer(Config{
		CacheFactory: Prebuilt(cache), Store: store.NewMem(),
		OriginURL: origin.URL, RedirectURL: "http://secondary.example",
		ChunkSize: testK, Alpha: 1,
		Clock: func() int64 { nowMu.Lock(); defer nowMu.Unlock(); now++; return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	edgeSrv := httptest.NewServer(s)
	defer edgeSrv.Close()

	// Hammer the same uncached range concurrently; the fetches must
	// largely coalesce (the cache admits the range on the first
	// HandleRequest and fetches it as one run; followers hit the
	// self-heal fill path and wait for that run).
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(fmt.Sprintf("%s/video?v=1&start=0&end=%d", edgeSrv.URL, 4*testK-1))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
	}
	wg.Wait()
	counting.mu.Lock()
	defer counting.mu.Unlock()
	total := 0
	for _, n := range counting.fills {
		total += n
	}
	// Without coalescing every chunk is fetched once per request (16);
	// flights overlap imperfectly (a follower can arrive after one
	// completes and before its bytes are claimed), so allow a small
	// factor instead of exactly one run.
	if total > 4 {
		t.Errorf("%d origin fetches for one 4-chunk range: %v; fills not coalesced", total, counting.fills)
	}
}

// gatedOrigin holds the first run fill of video 1 at the origin,
// closing arrived when it comes in and answering it once release is
// closed.
type gatedOrigin struct {
	inner            http.Handler
	once             sync.Once
	arrived, release chan struct{}
}

func (g *gatedOrigin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/video" && r.URL.Query().Get("v") == "1" {
		g.once.Do(func() {
			close(g.arrived)
			<-g.release
		})
	}
	g.inner.ServeHTTP(w, r)
}

// TestEdgeOwnsDecisionIDs: a cache may recycle an outcome's ID buffers
// on its next request, so the edge must fill from its own copy. Request
// A's run is held at the origin while request B, for another video,
// misses and makes Cafe rewrite its buffer. A's flight
// must still fill, serve and deregister A's chunks, not B's.
func TestEdgeOwnsDecisionIDs(t *testing.T) {
	cache, err := cafe.New(core.Config{ChunkSize: testK, DiskChunks: 64}, 2, cafe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewOrigin(MapCatalog{1: 2 * testK, 2: 2 * testK}, testK)
	if err != nil {
		t.Fatal(err)
	}
	gate := &gatedOrigin{inner: o, arrived: make(chan struct{}), release: make(chan struct{})}
	origin := httptest.NewServer(gate)
	defer origin.Close()
	s, err := NewServer(Config{
		CacheFactory: Prebuilt(cache), Store: store.NewMem(),
		OriginURL: origin.URL, RedirectURL: "http://secondary.example",
		ChunkSize: testK, Alpha: 2, FillTimeout: 5 * time.Second,
		Clock: func() int64 { return 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	edgeSrv := httptest.NewServer(s)
	defer edgeSrv.Close()

	type result struct {
		status int
		body   []byte
		err    error
	}
	get := func(v chunk.VideoID) result {
		client := &http.Client{Timeout: 20 * time.Second, CheckRedirect: func(*http.Request, []*http.Request) error {
			return http.ErrUseLastResponse
		}}
		resp, err := client.Get(fmt.Sprintf("%s/video?v=%d&start=0&end=%d", edgeSrv.URL, v, 2*testK-1))
		if err != nil {
			return result{err: err}
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return result{resp.StatusCode, body, err}
	}
	check := func(name string, v chunk.VideoID, r result) {
		t.Helper()
		if r.err != nil || r.status != http.StatusOK || !bytes.Equal(r.body, expected(v, 0, 2*testK-1)) {
			t.Errorf("request %s: status %d, %d bytes, %v; want 200 and video %d byte-exact", name, r.status, len(r.body), r.err, v)
		}
	}

	aDone := make(chan result, 1)
	go func() { aDone <- get(1) }()
	select {
	case <-gate.arrived:
	case r := <-aDone:
		t.Fatalf("request A returned (%d, %v) before its run reached the origin", r.status, r.err)
	}
	check("B", 2, get(2))
	close(gate.release)
	check("A", 1, <-aDone)

	st := s.SnapshotStats()
	if st.RequestedBytes != 4*testK || st.RedirectedBytes != 0 || st.FilledBytes != 4*testK || st.FillErrors != 0 {
		t.Errorf("ledger: requested %d, redirected %d, filled %d, fill errors %d; want %d, 0, %d, 0",
			st.RequestedBytes, st.RedirectedBytes, st.FilledBytes, st.FillErrors, 4*testK, 4*testK)
	}
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	if len(s.flights) != 0 {
		t.Errorf("%d chunk keys still registered as in flight, want none", len(s.flights))
	}
}

func TestEdgeMetricsEndpoint(t *testing.T) {
	cache, err := xlru.New(core.Config{ChunkSize: testK, DiskChunks: 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	rig := newRig(t, cache, MapCatalog{1: testK})
	rig.get(t, 1, 0, testK-1)
	resp, err := http.Get(rig.edgeSrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"videocdn_requests_served_total{algorithm=\"xlru\"} 1",
		"videocdn_cached_chunks{algorithm=\"xlru\"} 1",
		"# TYPE videocdn_cache_efficiency gauge",
		"videocdn_filled_bytes_total",
		"videocdn_degraded_redirects_total",
		"videocdn_self_heals_total",
		"videocdn_store_delete_errors_total",
		"videocdn_origin_retries_total",
		"videocdn_breaker_opens_total",
		"# TYPE videocdn_breaker_state gauge",
		"videocdn_breaker_state{algorithm=\"xlru\"} 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
}

func TestEdgeErrors(t *testing.T) {
	cache, err := xlru.New(core.Config{ChunkSize: testK, DiskChunks: 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	rig := newRig(t, cache, MapCatalog{1: testK})
	// Unknown video -> origin size lookup fails -> 502.
	resp, _ := rig.get(t, 42, 0, 10)
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("unknown video status = %d", resp.StatusCode)
	}
	// Bad range.
	resp2, err := http.Get(rig.edgeSrv.URL + "/video?v=1&start=5000&end=6000")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusRequestedRangeNotSatisfiable {
		t.Errorf("bad range status = %d", resp2.StatusCode)
	}
	// Bad video param.
	resp3, err := http.Get(rig.edgeSrv.URL + "/video?v=abc")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Errorf("bad param status = %d", resp3.StatusCode)
	}
}

// flakyOrigin wraps the real origin and fails every request while
// tripped.
type flakyOrigin struct {
	inner   http.Handler
	tripped bool
	mu      sync.Mutex
}

func (f *flakyOrigin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	bad := f.tripped
	f.mu.Unlock()
	if bad {
		http.Error(w, "origin overloaded", http.StatusInternalServerError)
		return
	}
	f.inner.ServeHTTP(w, r)
}

func (f *flakyOrigin) set(b bool) {
	f.mu.Lock()
	f.tripped = b
	f.mu.Unlock()
}

func TestEdgeSurvivesOriginOutage(t *testing.T) {
	cache, err := xlru.New(core.Config{ChunkSize: testK, DiskChunks: 16}, 1)
	if err != nil {
		t.Fatal(err)
	}
	catalog := MapCatalog{1: 2 * testK, 2: 2 * testK}
	o, err := NewOrigin(catalog, testK)
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyOrigin{inner: o}
	origin := httptest.NewServer(flaky)
	defer origin.Close()
	memStore := store.NewMem()
	now := int64(0)
	s, err := NewServer(Config{
		CacheFactory: Prebuilt(cache), Store: memStore,
		OriginURL: origin.URL, RedirectURL: "http://secondary.example",
		ChunkSize: testK, Alpha: 1,
		Clock: func() int64 { now++; return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	edgeSrv := httptest.NewServer(s)
	defer edgeSrv.Close()
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	get := func(v chunk.VideoID) int {
		resp, err := client.Get(fmt.Sprintf("%s/video?v=%d&start=0&end=%d", edgeSrv.URL, v, 2*testK-1))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	// Healthy fill.
	if code := get(1); code != http.StatusOK {
		t.Fatalf("healthy fill: %d", code)
	}
	// Outage: a fill-bearing request degrades to the second line of
	// defense — a 302 to the alternative location, never a 502...
	flaky.set(true)
	if code := get(2); code != http.StatusFound {
		t.Errorf("during outage: %d, want 302", code)
	}
	// ...but cached content keeps serving.
	if code := get(1); code != http.StatusOK {
		t.Errorf("cached content during outage: %d, want 200", code)
	}
	// Recovery: the failed video works again. The degraded request's
	// admission was rolled back, so cache and store agree throughout.
	flaky.set(false)
	if code := get(2); code != http.StatusOK {
		t.Errorf("after recovery: %d, want 200", code)
	}
	st := s.SnapshotStats()
	if st.FillErrors == 0 {
		t.Error("outage should be visible in stats")
	}
	if st.DegradedRedirects == 0 {
		t.Error("degraded redirect should be counted")
	}
	if st.RequestedBytes != 2*testK*3+st.RedirectedBytes {
		// 3 served requests of 2K each, plus the degraded one charged
		// symmetrically on both sides.
		t.Errorf("accounting: requested %d, redirected %d", st.RequestedBytes, st.RedirectedBytes)
	}
}

func TestNewServerValidation(t *testing.T) {
	cache, _ := xlru.New(core.Config{ChunkSize: testK, DiskChunks: 8}, 1)
	good := Config{
		CacheFactory: Prebuilt(cache), Store: store.NewMem(),
		OriginURL: "http://o", RedirectURL: "http://r", ChunkSize: testK,
	}
	cases := []func(*Config){
		func(c *Config) { c.CacheFactory = nil },
		func(c *Config) { c.CacheFactory = Prebuilt(nil) }, // factory returns no cache
		func(c *Config) { c.Store = nil },
		func(c *Config) { c.OriginURL = "" },
		func(c *Config) { c.OriginURL = "http://[::1" }, // does not parse
		func(c *Config) { c.RedirectURL = "" },
		func(c *Config) { c.ChunkSize = 0 },
		func(c *Config) { c.Alpha = -1 },
	}
	for i, mutate := range cases {
		cfg := good
		mutate(&cfg)
		if _, err := NewServer(cfg); err == nil {
			t.Errorf("mutation %d should fail", i)
		}
	}
	if _, err := NewServer(good); err != nil {
		t.Errorf("good config failed: %v", err)
	}
}

func TestEdgeWithFilesystemStore(t *testing.T) {
	cache, err := xlru.New(core.Config{ChunkSize: testK, DiskChunks: 16}, 1)
	if err != nil {
		t.Fatal(err)
	}
	catalog := MapCatalog{1: 3 * testK}
	o, err := NewOrigin(catalog, testK)
	if err != nil {
		t.Fatal(err)
	}
	origin := httptest.NewServer(o)
	defer origin.Close()
	fsStore, err := store.NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	now := int64(0)
	s, err := NewServer(Config{
		CacheFactory: Prebuilt(cache), Store: fsStore,
		OriginURL: origin.URL, RedirectURL: "http://secondary.example",
		ChunkSize: testK, Alpha: 1,
		Clock: func() int64 { now++; return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	edgeSrv := httptest.NewServer(s)
	defer edgeSrv.Close()

	resp, err := http.Get(fmt.Sprintf("%s/video?v=1&start=0&end=%d", edgeSrv.URL, 3*testK-1))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !bytes.Equal(body, expected(1, 0, 3*testK-1)) {
		t.Error("bytes served from the filesystem store mismatch origin content")
	}
	if fsStore.Len() != 3 {
		t.Errorf("fs store holds %d chunks, want 3", fsStore.Len())
	}
}

func TestConcurrentEdgeRequests(t *testing.T) {
	cache, err := xlru.New(core.Config{ChunkSize: testK, DiskChunks: 256}, 1)
	if err != nil {
		t.Fatal(err)
	}
	catalog := DeterministicCatalog{MinBytes: 2 * testK, MaxBytes: 6 * testK}
	rig := newRig(t, cache, catalog)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				v := chunk.VideoID(1 + (g+i)%10)
				size, _ := catalog.SizeOf(v)
				url := fmt.Sprintf("%s/video?v=%d&start=0&end=%d", rig.edgeSrv.URL, v, size/2)
				resp, err := http.Get(url)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(g)
	}
	wg.Wait()
	st := rig.edge.SnapshotStats()
	if st.Served+st.Redirected != 160 {
		t.Errorf("handled %d requests, want 160", st.Served+st.Redirected)
	}
}
