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
	"videocdn/internal/xlru"
)

// shardFactory builds the given algorithm for one shard via the
// policy registry.
func shardFactory(t testing.TB, algo string, alpha float64) func(int, core.Config) (core.Cache, error) {
	t.Helper()
	f, err := policy.Factory(algo, policy.Env{Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// newShardedServer builds an edge server with n lock shards over a
// shared origin.
func newShardedServer(t testing.TB, originURL, algo string, shards, diskChunks int, clock func() int64) *Server {
	t.Helper()
	s, err := NewServer(Config{
		Shards:       shards,
		CacheFactory: shardFactory(t, algo, 2),
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

// TestShardedDifferential drives the same deterministic trace through
// a 1-shard and an 8-shard server (same total disk, capacity divided
// per shard) and asserts every response and the aggregate counters are
// identical. Capacity never binds — per-video decision state is
// confined to the owning shard, so sharding must not change a single
// decision, byte, or the Eq. 2 efficiency.
func TestShardedDifferential(t *testing.T) {
	for _, algo := range []string{"cafe", "xlru"} {
		t.Run(algo, func(t *testing.T) {
			catalog := MapCatalog{999: 5000 * testK} // wider than every disk: redirects on both
			for v := chunk.VideoID(1); v <= 32; v++ {
				catalog[v] = int64(2+v%5)*testK + int64(v%3)*100
			}
			o, err := NewOrigin(catalog, testK)
			if err != nil {
				t.Fatal(err)
			}
			origin := httptest.NewServer(o)
			defer origin.Close()

			var now atomic.Int64
			clock := now.Load
			const disk = 4096 // 512 per shard at 8 shards; total catalog ≈ 224 chunks
			single := newShardedServer(t, origin.URL, algo, 1, disk, clock)
			sharded := newShardedServer(t, origin.URL, algo, 8, disk, clock)
			singleSrv := httptest.NewServer(single)
			defer singleSrv.Close()
			shardedSrv := httptest.NewServer(sharded)
			defer shardedSrv.Close()

			client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
				return http.ErrUseLastResponse
			}}
			get := func(base string, v chunk.VideoID, start, end int64) (int, []byte) {
				resp, err := client.Get(fmt.Sprintf("%s/video?v=%d&start=%d&end=%d", base, v, start, end))
				if err != nil {
					t.Fatal(err)
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				return resp.StatusCode, body
			}

			rng := rand.New(rand.NewSource(42))
			for i := 0; i < 300; i++ {
				v := chunk.VideoID(1 + rng.Intn(32))
				size := catalog[v]
				start, end := int64(0), size-1
				if rng.Intn(2) == 0 { // one random whole chunk
					c := rng.Int63n((size + testK - 1) / testK)
					start = c * testK
					end = min((c+1)*testK, size) - 1
				}
				if i%50 == 49 {
					v, start, end = 999, 0, catalog[999]-1
				}
				if rng.Intn(4) == 0 {
					now.Add(int64(1 + rng.Intn(600)))
				}
				cs, bs := get(singleSrv.URL, v, start, end)
				cg, bg := get(shardedSrv.URL, v, start, end)
				if cs != cg {
					t.Fatalf("request %d (v=%d [%d,%d]): single=%d sharded=%d", i, v, start, end, cs, cg)
				}
				if string(bs) != string(bg) {
					t.Fatalf("request %d (v=%d [%d,%d]): bodies differ (%d vs %d bytes)", i, v, start, end, len(bs), len(bg))
				}
			}

			a, b := single.SnapshotStats(), sharded.SnapshotStats()
			if a.Served != b.Served || a.Redirected != b.Redirected {
				t.Errorf("served/redirected: single %d/%d, sharded %d/%d", a.Served, a.Redirected, b.Served, b.Redirected)
			}
			if a.RequestedBytes != b.RequestedBytes || a.FilledBytes != b.FilledBytes || a.RedirectedBytes != b.RedirectedBytes {
				t.Errorf("counters: single %+v, sharded %+v", a, b)
			}
			if a.Efficiency != b.Efficiency {
				t.Errorf("efficiency: single %v, sharded %v", a.Efficiency, b.Efficiency)
			}
			if a.CachedChunks != b.CachedChunks {
				t.Errorf("cached chunks: single %d, sharded %d", a.CachedChunks, b.CachedChunks)
			}
			if a.FillErrors+b.FillErrors+a.DegradedRedirects+b.DegradedRedirects != 0 {
				t.Errorf("unexpected errors: single %+v, sharded %+v", a, b)
			}
			sum := 0
			for _, n := range b.ShardChunks {
				sum += n
			}
			if sum != b.CachedChunks {
				t.Errorf("shard_chunks sum %d != cached_chunks %d", sum, b.CachedChunks)
			}
			if b.Shards != 8 || len(b.ShardChunks) != 8 {
				t.Errorf("sharded stats report %d shards (%d listed), want 8", b.Shards, len(b.ShardChunks))
			}
		})
	}
}

// TestShardedConcurrentEq2 hammers every shard from concurrent clients
// and then checks the Eq. 2 accounting identity on the aggregate
// /stats: every requested byte was either served or redirected, bodies
// are byte-exact, and the reported efficiency equals Eq. 2 recomputed
// from the raw byte counters. Runs under -race in the race CI job.
func TestShardedConcurrentEq2(t *testing.T) {
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
	s := newShardedServer(t, origin.URL, "cafe", 4, 512, now.Load)
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
	// redirected — on the aggregate across all shards, exactly.
	if snap.RequestedBytes != servedBody.Load()+snap.RedirectedBytes {
		t.Errorf("requested %d != served %d + redirected %d",
			snap.RequestedBytes, servedBody.Load(), snap.RedirectedBytes)
	}
	// The reported efficiency must be Eq. 2 of the raw aggregate
	// counters, bit-for-bit.
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

// TestShardedConfigValidation pins the Config invariants around
// sharding.
func TestShardedConfigValidation(t *testing.T) {
	base := func() Config {
		return Config{
			Store:       store.NewMem(),
			OriginURL:   "http://origin.example",
			RedirectURL: "http://secondary.example",
			ChunkSize:   testK,
		}
	}
	factory := shardFactory(t, "xlru", 2)

	cfg := base()
	cfg.Shards = 3
	cfg.CacheFactory = factory
	cfg.CacheConfig = core.Config{ChunkSize: testK, DiskChunks: 64}
	if _, err := NewServer(cfg); err == nil {
		t.Error("non-power-of-two shard count accepted")
	}

	cfg = base()
	cfg.CacheFactory = factory
	cfg.CacheConfig = core.Config{ChunkSize: testK, DiskChunks: 4}
	cfg.Shards = 8
	if _, err := NewServer(cfg); err == nil {
		t.Error("4-chunk disk split 8 ways accepted")
	}

	cfg = base()
	c, err := xlru.New(core.Config{ChunkSize: testK, DiskChunks: 64}, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CacheFactory = Prebuilt(c)
	cfg.Shards = 2
	if _, err := NewServer(cfg); err == nil {
		t.Error("prebuilt cache with Shards=2 accepted")
	}
	// One shard hands CacheConfig to the factory as it is, and a
	// registry factory refuses a zero disk.
	cfg = base()
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
	cfg.Shards = 4
	cfg.CacheFactory = factory
	cfg.CacheConfig = core.Config{ChunkSize: testK, DiskChunks: 64}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("valid sharded config rejected: %v", err)
	}
	if s.NumShards() != 4 {
		t.Errorf("NumShards() = %d, want 4", s.NumShards())
	}
	if st := s.SnapshotStats(); st.Algorithm != "xlru×4" {
		t.Errorf("algorithm name = %q, want xlru×4", st.Algorithm)
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
	s := newShardedServer(t, origin.URL, "cafe", 2, 64, func() int64 { return 0 })
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
