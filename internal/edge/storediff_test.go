package edge

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/store"
)

// newStoreVariantServer builds a sharded edge server over the given
// store backend: mem, fs or slab.
func newStoreVariantServer(t testing.TB, originURL, algo, kind string, clock func() int64) *Server {
	t.Helper()
	var st store.Store
	switch kind {
	case "mem":
		st = store.NewMem()
	case "fs":
		fs, err := store.NewFS(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		st = fs
	case "slab":
		sl, err := store.NewSlab(t.TempDir(), store.SlabConfig{SlotBytes: testK, SegmentSlots: 64})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sl.Close() })
		st = sl
	default:
		t.Fatalf("unknown store kind %q", kind)
	}
	s, err := NewServer(Config{
		Shards:       4,
		CacheFactory: shardFactory(t, algo, 2),
		CacheConfig:  core.Config{ChunkSize: testK, DiskChunks: 2048},
		Store:        st,
		OriginURL:    originURL,
		RedirectURL:  "http://secondary.example",
		ChunkSize:    testK,
		Alpha:        2,
		Clock:        clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestStoreBackendDifferential drives one deterministic trace through
// every store backend and asserts each response — status and body —
// and the core stats are identical to the mem baseline. The store
// layer moves bytes; it must never change a decision, a served byte,
// or the Eq. 2 efficiency.
func TestStoreBackendDifferential(t *testing.T) {
	variants := []string{"mem", "fs", "slab"} // baseline first
	for _, algo := range []string{"cafe", "xlru"} {
		t.Run(algo, func(t *testing.T) {
			catalog := MapCatalog{999: 5000 * testK} // wider than every disk: redirects everywhere
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
			servers := make([]*Server, len(variants))
			urls := make([]string, len(variants))
			for i, v := range variants {
				servers[i] = newStoreVariantServer(t, origin.URL, algo, v, clock)
				srv := httptest.NewServer(servers[i])
				defer srv.Close()
				urls[i] = srv.URL
			}

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
				c0, b0 := get(urls[0], v, start, end)
				for j := 1; j < len(variants); j++ {
					cj, bj := get(urls[j], v, start, end)
					if cj != c0 {
						t.Fatalf("request %d (v=%d [%d,%d]): %s=%d %s=%d",
							i, v, start, end, variants[0], c0, variants[j], cj)
					}
					if string(bj) != string(b0) {
						t.Fatalf("request %d (v=%d [%d,%d]): %s and %s bodies differ (%d vs %d bytes)",
							i, v, start, end, variants[0], variants[j], len(b0), len(bj))
					}
				}
			}

			// Every core stat — including the bit-exact Eq. 2 efficiency
			// — must match the baseline.
			base := servers[0].SnapshotStats()
			for j := 1; j < len(variants); j++ {
				got := servers[j].SnapshotStats()
				if got.Served != base.Served || got.Redirected != base.Redirected {
					t.Errorf("%s: served/redirected %d/%d, baseline %d/%d",
						variants[j], got.Served, got.Redirected, base.Served, base.Redirected)
				}
				if got.RequestedBytes != base.RequestedBytes ||
					got.FilledBytes != base.FilledBytes ||
					got.RedirectedBytes != base.RedirectedBytes {
					t.Errorf("%s: bytes req/fill/redir %d/%d/%d, baseline %d/%d/%d",
						variants[j], got.RequestedBytes, got.FilledBytes, got.RedirectedBytes,
						base.RequestedBytes, base.FilledBytes, base.RedirectedBytes)
				}
				if got.Efficiency != base.Efficiency {
					t.Errorf("%s: efficiency %v, baseline %v", variants[j], got.Efficiency, base.Efficiency)
				}
				if got.CachedChunks != base.CachedChunks {
					t.Errorf("%s: cached chunks %d, baseline %d", variants[j], got.CachedChunks, base.CachedChunks)
				}
				if got.FillErrors != 0 || got.DegradedRedirects != 0 {
					t.Errorf("%s: errors on a healthy run: fill=%d degraded=%d",
						variants[j], got.FillErrors, got.DegradedRedirects)
				}
			}
		})
	}
}
