package edge

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"sync/atomic"
	"testing"

	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/store"
)

// hotVariant names one (hot-tier budget, store backend) combination
// the tier differential test drives.
type hotVariant struct {
	name string
	hot  int64
	kind string // mem, slab-mmap (both lend their bytes), slab, fs (neither does)
}

// lends reports whether the variant's cold store serves a resident
// chunk zero-copy by itself, in which case the tier must stay empty.
func (v hotVariant) lends() bool { return v.kind == "mem" || v.kind == "slab-mmap" }

// newHotVariantServer builds an edge server with the given hot
// tier budget over the given cold backend.
func newHotVariantServer(t testing.TB, originURL, algo string, v hotVariant, clock func() int64) *Server {
	t.Helper()
	var st store.Store
	switch v.kind {
	case "mem":
		st = store.NewMem()
	case "slab", "slab-mmap":
		sl, err := store.NewSlab(t.TempDir(), store.SlabConfig{SlotBytes: testK, SegmentSlots: 64, Mmap: v.kind == "slab-mmap"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sl.Close() })
		st = sl
	case "fs":
		fs, err := store.NewFS(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		st = fs
	default:
		t.Fatalf("unknown store kind %q", v.kind)
	}
	s, err := NewServer(Config{
		CacheFactory: registryFactory(t, algo, 2),
		CacheConfig:  core.Config{ChunkSize: testK, DiskChunks: 2048},
		Store:        st,
		OriginURL:    originURL,
		RedirectURL:  "http://secondary.example",
		ChunkSize:    testK,
		Alpha:        2,
		Clock:        clock,
		HotBytes:     v.hot,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestHotTierDifferential drives one deterministic trace through the
// same edge with the hot tier off and with it on over every kind of
// cold store. Over stores whose reads cost a copy (slab by pread, fs)
// the tier is small (32 KB — real promotion and eviction churn) or
// effectively unbounded, and must serve; over stores that lend their
// bytes (mem, the mmap slab) it must stay empty — one RAM copy per
// chunk. Either way every response — status and body — and every core
// stat, including the bit-exact Eq. 2 efficiency, must match the
// tier-off baseline: the hot tier is a serving optimization and must
// never change a decision or a byte.
// Tier counters are otherwise excluded — they are diagnostics, not
// part of the paper's accounting.
func TestHotTierDifferential(t *testing.T) {
	const unbounded = 1 << 40
	variants := []hotVariant{
		{name: "hot-off", hot: 0, kind: "mem"}, // baseline first
		{name: "hot-32kb-slab", hot: 32 << 10, kind: "slab"},
		{name: "hot-unbounded-slab", hot: unbounded, kind: "slab"},
		{name: "hot-32kb-fs", hot: 32 << 10, kind: "fs"},
		{name: "hot-unbounded-mem", hot: unbounded, kind: "mem"},
		{name: "hot-4mb-slab-mmap", hot: 4 << 20, kind: "slab-mmap"},
	}
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
				servers[i] = newHotVariantServer(t, origin.URL, algo, v, clock)
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

			rng := rand.New(rand.NewSource(43))
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
							i, v, start, end, variants[0].name, c0, variants[j].name, cj)
					}
					if string(bj) != string(b0) {
						t.Fatalf("request %d (v=%d [%d,%d]): %s and %s bodies differ (%d vs %d bytes)",
							i, v, start, end, variants[0].name, variants[j].name, len(b0), len(bj))
					}
				}
			}

			base := servers[0].SnapshotStats()
			for j := 1; j < len(variants); j++ {
				got := servers[j].SnapshotStats()
				if got.Served != base.Served || got.Redirected != base.Redirected {
					t.Errorf("%s: served/redirected %d/%d, baseline %d/%d",
						variants[j].name, got.Served, got.Redirected, base.Served, base.Redirected)
				}
				if got.RequestedBytes != base.RequestedBytes ||
					got.FilledBytes != base.FilledBytes ||
					got.RedirectedBytes != base.RedirectedBytes {
					t.Errorf("%s: bytes req/fill/redir %d/%d/%d, baseline %d/%d/%d",
						variants[j].name, got.RequestedBytes, got.FilledBytes, got.RedirectedBytes,
						base.RequestedBytes, base.FilledBytes, base.RedirectedBytes)
				}
				if got.Efficiency != base.Efficiency {
					t.Errorf("%s: efficiency %v, baseline %v", variants[j].name, got.Efficiency, base.Efficiency)
				}
				if got.CachedChunks != base.CachedChunks {
					t.Errorf("%s: cached chunks %d, baseline %d", variants[j].name, got.CachedChunks, base.CachedChunks)
				}
				if got.FillErrors != 0 || got.DegradedRedirects != 0 {
					t.Errorf("%s: errors on a healthy run: fill=%d degraded=%d",
						variants[j].name, got.FillErrors, got.DegradedRedirects)
				}
			}

			// Sanity on the tier diagnostics themselves: the baseline
			// reports no tier; a tier over a store that cannot lend
			// actually served bytes from RAM on this re-read-heavy trace;
			// a tier over a store that lends never held a chunk.
			if base.HotTier {
				t.Error("baseline reports a hot tier")
			}
			for j := 1; j < len(variants); j++ {
				v, got := variants[j], servers[j].SnapshotStats()
				switch {
				case !got.HotTier:
					t.Errorf("%s: hot tier not reported", v.name)
				case v.lends():
					if got.HotTierChunks != 0 || got.HotTierBytes != 0 || got.HotTierPromotions != 0 || got.HotTierHits != 0 {
						t.Errorf("%s: tier holds copies of chunks its cold store lends: %d chunks, %d bytes, %d promotions, %d hits",
							v.name, got.HotTierChunks, got.HotTierBytes, got.HotTierPromotions, got.HotTierHits)
					}
				case got.HotTierHits == 0 || got.HotTierBytesServed == 0 || got.HotTierPromotions == 0:
					t.Errorf("%s: tier never served: %d hits, %d bytes, %d promotions",
						v.name, got.HotTierHits, got.HotTierBytesServed, got.HotTierPromotions)
				case v.hot == unbounded && got.HotTierEvictions != 0:
					t.Errorf("%s: unbounded tier evicted %d chunks", v.name, got.HotTierEvictions)
				case v.hot != unbounded && got.HotTierEvictions == 0:
					t.Errorf("%s: a 32 KB tier under this trace never evicted", v.name)
				}
			}
		})
	}
}

// TestHotTierStreamRangeZeroAllocs pins the zero-copy serve path with
// the hot tier enabled: a steady-state cache-hit stream must borrow
// every chunk and perform zero heap allocations — it never even touches
// the pooled copy buffers. Over a slab read by pread the loans are the
// tier's (promoted by the warm-up's copying reads); over stores that
// lend (mem, the mmap slab) they are the cold store's and the tier is
// empty.
func TestHotTierStreamRangeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool and fine-grained timing are pessimized under -race")
	}
	catalog := MapCatalog{1: 8 * testK}
	o, err := NewOrigin(catalog, testK)
	if err != nil {
		t.Fatal(err)
	}
	origin := httptest.NewServer(o)
	defer origin.Close()
	for _, kind := range []string{"slab", "mem", "slab-mmap"} {
		t.Run(kind, func(t *testing.T) {
			v := hotVariant{hot: 64 << 20, kind: kind}
			s := newHotVariantServer(t, origin.URL, "cafe", v, func() int64 { return 0 })
			srv := httptest.NewServer(s)
			defer srv.Close()

			// Warm: admit, fill, and — where reads copy — promote the
			// whole video.
			for i := 0; i < 3; i++ {
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
			wantHot := 8
			if v.lends() {
				wantHot = 0
			}
			if st := s.SnapshotStats(); st.HotTierChunks != wantHot || st.HotTierPromotions != int64(wantHot) {
				t.Fatalf("warmup promoted %d chunks (%d resident), want %d",
					st.HotTierPromotions, st.HotTierChunks, wantHot)
			}

			ctx := context.Background()
			if err := s.StreamRange(ctx, io.Discard, 1, 0, 8*testK-1); err != nil {
				t.Fatal(err)
			}
			before := s.SnapshotStats()
			borrowsBefore := s.ServePathStats().BorrowChunks
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			allocs := testing.AllocsPerRun(200, func() {
				if err := s.StreamRange(ctx, io.Discard, 1, 0, 8*testK-1); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("hot-tier stream path allocates %v times per request, want 0", allocs)
			}
			// Prove the measurement exercised the borrow path, not the
			// copy fallback, and that each loan came from the one place
			// the chunk is in RAM.
			after := s.SnapshotStats()
			if got := s.ServePathStats().BorrowChunks - borrowsBefore; got < 200*8 {
				t.Errorf("measured loop borrowed %d chunks, want >= %d (copy fallback engaged?)", got, 200*8)
			}
			hot, cold := after.HotTierHits-before.HotTierHits, after.ColdTierHits-before.ColdTierHits
			if v.lends() {
				if hot != 0 || cold < 200*8 || after.HotTierChunks != 0 || after.HotTierBytes != 0 || after.HotTierPromotions != 0 {
					t.Errorf("lending cold store: %d hot / %d cold hits, %d chunks (%d bytes) resident after %d promotions; want every loan cold and an empty tier",
						hot, cold, after.HotTierChunks, after.HotTierBytes, after.HotTierPromotions)
				}
			} else if hot < 200*8 || cold != 0 {
				t.Errorf("measured loop took %d hot / %d cold hits, want every chunk out of the hot tier", hot, cold)
			}
		})
	}
}
