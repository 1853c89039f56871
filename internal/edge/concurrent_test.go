package edge

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"

	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/cost"
	"videocdn/internal/policy"
	_ "videocdn/internal/policy/all"
	"videocdn/internal/store"
)

// registryFactory builds the given algorithm via the policy registry.
func registryFactory(t testing.TB, algo string, alpha float64) func(int, core.Config) (core.Cache, error) {
	t.Helper()
	f, err := policy.Factory(algo, policy.Env{Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// newRegistryServer builds an edge server over an in-memory store
// whose cache the policy registry builds.
func newRegistryServer(t testing.TB, originURL, algo string, diskChunks int, clock func() int64) *Server {
	t.Helper()
	s, err := NewServer(Config{
		CacheFactory: registryFactory(t, algo, 2),
		CacheConfig:  core.Config{ChunkSize: testK, DiskChunks: diskChunks},
		Store:        store.NewMem(),
		OriginURL:    originURL,
		RedirectURL:  "http://secondary.example",
		ChunkSize:    testK,
		Alpha:        2,
		Clock:        clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestConcurrentEq2 hammers the server from concurrent clients and
// then checks the Eq. 2 accounting identity on /stats: every requested
// byte was either served or redirected, bodies are byte-exact, and the
// reported efficiency equals Eq. 2 recomputed from the raw byte
// counters. Runs under -race in the race CI job.
func TestConcurrentEq2(t *testing.T) {
	catalog := MapCatalog{}
	for v := chunk.VideoID(1); v <= 64; v++ {
		catalog[v] = int64(1+v%4)*testK + int64(v%5)*50
	}
	o, err := NewOrigin(catalog, testK)
	if err != nil {
		t.Fatal(err)
	}
	origin := httptest.NewServer(o)
	defer origin.Close()

	var now atomic.Int64
	s := newRegistryServer(t, origin.URL, "cafe", 512, now.Load)
	srv := httptest.NewServer(s)
	defer srv.Close()

	const workers = 8
	const perWorker = 60
	var requested, servedBody, redirectedBytes, redirects atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
				return http.ErrUseLastResponse
			}}
			for i := 0; i < perWorker; i++ {
				v := chunk.VideoID(1 + rng.Intn(64))
				size := catalog[v]
				start := rng.Int63n(size)
				end := start + rng.Int63n(size-start)
				want := end - start + 1
				if rng.Intn(8) == 0 {
					now.Add(int64(rng.Intn(120)))
				}
				resp, err := client.Get(fmt.Sprintf("%s/video?v=%d&start=%d&end=%d", srv.URL, v, start, end))
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				requested.Add(want)
				switch resp.StatusCode {
				case http.StatusOK, http.StatusPartialContent:
					if int64(len(body)) != want {
						t.Errorf("v=%d [%d,%d]: got %d bytes, want %d", v, start, end, len(body), want)
					}
					if string(body) != string(expected(v, start, end)) {
						t.Errorf("v=%d [%d,%d]: body mismatch", v, start, end)
					}
					servedBody.Add(int64(len(body)))
				case http.StatusFound:
					redirects.Add(1)
					redirectedBytes.Add(want)
				default:
					t.Errorf("v=%d [%d,%d]: unexpected status %d", v, start, end, resp.StatusCode)
				}
			}
		}(w)
	}
	wg.Wait()

	snap := s.SnapshotStats()
	if snap.Served+snap.Redirected != workers*perWorker {
		t.Errorf("served %d + redirected %d != %d requests", snap.Served, snap.Redirected, workers*perWorker)
	}
	if snap.RequestedBytes != requested.Load() {
		t.Errorf("requested_bytes = %d, client sent %d", snap.RequestedBytes, requested.Load())
	}
	if snap.RedirectedBytes != redirectedBytes.Load() {
		t.Errorf("redirected_bytes = %d, client observed %d", snap.RedirectedBytes, redirectedBytes.Load())
	}
	// Eq. 2 egress identity: every requested byte was served or
	// redirected, exactly.
	if snap.RequestedBytes != servedBody.Load()+snap.RedirectedBytes {
		t.Errorf("requested %d != served %d + redirected %d",
			snap.RequestedBytes, servedBody.Load(), snap.RedirectedBytes)
	}
	// The reported efficiency must be Eq. 2 of the raw counters,
	// bit-for-bit.
	agg := cost.Counters{
		Requested:  snap.RequestedBytes,
		Filled:     snap.FilledBytes,
		Redirected: snap.RedirectedBytes,
	}
	if want := agg.Efficiency(cost.MustModel(2)); snap.Efficiency != want {
		t.Errorf("efficiency = %v, Eq. 2 of counters = %v", snap.Efficiency, want)
	}
	if snap.FillErrors != 0 || snap.DegradedRedirects != 0 {
		t.Errorf("healthy origin produced fill_errors=%d degraded=%d", snap.FillErrors, snap.DegradedRedirects)
	}
}

// TestShardedConfigValidation pins the Config invariants around the
// cache factory: NewServer builds one cache from CacheConfig as given.
func TestShardedConfigValidation(t *testing.T) {
	base := func() Config {
		return Config{
			Store:       store.NewMem(),
			OriginURL:   "http://origin.example",
			RedirectURL: "http://secondary.example",
			ChunkSize:   testK,
		}
	}
	factory := registryFactory(t, "xlru", 2)

	// A registry factory refuses a zero disk.
	cfg := base()
	cfg.CacheFactory = factory
	if _, err := NewServer(cfg); err == nil {
		t.Error("zero-disk CacheConfig accepted")
	}

	// The edge copies every decision's IDs, so the flag is accepted and
	// ignored.
	cfg = base()
	cfg.CacheFactory = factory
	cfg.CacheConfig = core.Config{ChunkSize: testK, DiskChunks: 64, ReuseOutcomeBuffers: true}
	if _, err := NewServer(cfg); err != nil {
		t.Errorf("ReuseOutcomeBuffers rejected: %v", err)
	}

	cfg = base()
	cfg.CacheFactory = factory
	cfg.CacheConfig = core.Config{ChunkSize: testK, DiskChunks: 64}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if st := s.SnapshotStats(); st.Algorithm != "xlru" || st.CachedChunks != 0 {
		t.Errorf("algorithm %q with %d chunks, want xlru with 0", st.Algorithm, st.CachedChunks)
	}
}

// TestStreamRangeZeroAllocs asserts the steady-state cache-hit serve
// path — store read through the pooled chunk buffer, range slicing,
// writing — performs zero heap allocations per request.
func TestStreamRangeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is deliberately pessimized under -race")
	}
	catalog := MapCatalog{1: 8 * testK}
	o, err := NewOrigin(catalog, testK)
	if err != nil {
		t.Fatal(err)
	}
	origin := httptest.NewServer(o)
	defer origin.Close()
	s := newRegistryServer(t, origin.URL, "cafe", 64, func() int64 { return 0 })
	srv := httptest.NewServer(s)
	defer srv.Close()

	// Warm: admit and fill the whole video.
	for i := 0; i < 2; i++ {
		resp, err := http.Get(srv.URL + "/video?v=1")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warmup status %d", resp.StatusCode)
		}
	}

	ctx := context.Background()
	// Prime the buffer pool outside the measurement.
	if err := s.StreamRange(ctx, io.Discard, 1, 0, 8*testK-1); err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a mid-run GC could empty the pool
	allocs := testing.AllocsPerRun(200, func() {
		if err := s.StreamRange(ctx, io.Discard, 1, 0, 8*testK-1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("cache-hit stream path allocates %v times per request, want 0", allocs)
	}
}
