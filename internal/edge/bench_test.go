package edge

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"videocdn/internal/cafe"
	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/store"
)

// BenchmarkEdgeHitPath measures the end-to-end HTTP latency of a
// cache-hit request through the edge server (store read + range
// slicing + transfer), the steady-state hot path of a deployed cache.
func BenchmarkEdgeHitPath(b *testing.B) {
	cache, err := cafe.New(core.Config{ChunkSize: testK, DiskChunks: 64}, 1, cafe.Options{})
	if err != nil {
		b.Fatal(err)
	}
	catalog := MapCatalog{1: 16 * testK}
	o, err := NewOrigin(catalog, testK)
	if err != nil {
		b.Fatal(err)
	}
	origin := httptest.NewServer(o)
	defer origin.Close()
	now := int64(0)
	s, err := NewServer(Config{
		CacheFactory: Prebuilt(cache), Store: store.NewMem(),
		OriginURL: origin.URL, RedirectURL: "http://secondary.example",
		ChunkSize: testK, Alpha: 1,
		Clock: func() int64 { now++; return now },
	})
	if err != nil {
		b.Fatal(err)
	}
	edgeSrv := httptest.NewServer(s)
	defer edgeSrv.Close()
	url := fmt.Sprintf("%s/video?v=1&start=0&end=%d", edgeSrv.URL, 8*testK-1)
	// Warm the cache.
	for i := 0; i < 2; i++ {
		resp, err := http.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
	}
	b.SetBytes(8 * testK)
}

// BenchmarkHitStream measures the byte-moving half of the cache-hit
// serve path — store read through the pooled chunk buffer, range
// slicing, write-out — with no HTTP machinery. This is the path the
// "0 allocs/request" acceptance tracks (see TestStreamRangeZeroAllocs).
func BenchmarkHitStream(b *testing.B) {
	s, span := warmHitServer(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.SetBytes(span)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.StreamRange(ctx, io.Discard, 1, 0, span-1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHitServe measures the full edge handler on a cache hit —
// query parsing, decision engine, counters, headers, streaming —
// through a reusable in-process ResponseWriter, i.e. everything except
// net/http's own connection handling.
func BenchmarkHitServe(b *testing.B) {
	s, span := warmHitServer(b)
	req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/video?v=1&start=0&end=%d", span-1), nil)
	w := &discardResponseWriter{h: make(http.Header, 4)}
	b.ReportAllocs()
	b.SetBytes(span)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.handleVideo(w, req)
	}
}

// warmHitServer builds an edge server with an 8-chunk video fully
// cached.
func warmHitServer(b *testing.B) (*Server, int64) {
	b.Helper()
	span := int64(8 * testK)
	o, err := NewOrigin(MapCatalog{1: span}, testK)
	if err != nil {
		b.Fatal(err)
	}
	origin := httptest.NewServer(o)
	b.Cleanup(origin.Close)
	s := newRegistryServer(b, origin.URL, "cafe", 64, func() int64 { return 0 })
	srv := httptest.NewServer(s)
	b.Cleanup(srv.Close)
	for i := 0; i < 2; i++ {
		resp, err := http.Get(srv.URL + "/video?v=1")
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("warmup status %d", resp.StatusCode)
		}
	}
	return s, span
}

// discardResponseWriter is an http.ResponseWriter that throws bytes
// away and reuses one header map, so handler benchmarks measure the
// handler, not the harness.
type discardResponseWriter struct {
	h      http.Header
	status int
}

func (d *discardResponseWriter) Header() http.Header         { return d.h }
func (d *discardResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponseWriter) WriteHeader(code int)        { d.status = code }

// BenchmarkEdgeHitPathParallel measures end-to-end HTTP throughput of
// concurrent cache-hit requests (RunParallel drives GOMAXPROCS client
// goroutines; bench/ is the closed-loop harness with skewed load and
// percentiles).
func BenchmarkEdgeHitPathParallel(b *testing.B) {
	catalog := MapCatalog{}
	for v := chunk.VideoID(1); v <= 64; v++ {
		catalog[v] = 4 * testK
	}
	o, err := NewOrigin(catalog, testK)
	if err != nil {
		b.Fatal(err)
	}
	origin := httptest.NewServer(o)
	b.Cleanup(origin.Close)
	s := newRegistryServer(b, origin.URL, "cafe", 1024, func() int64 { return 0 })
	srv := httptest.NewServer(s)
	b.Cleanup(srv.Close)
	for v := chunk.VideoID(1); v <= 64; v++ {
		resp, err := http.Get(fmt.Sprintf("%s/video?v=%d", srv.URL, v))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	b.SetBytes(4 * testK)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := &http.Client{}
		v := chunk.VideoID(1)
		for pb.Next() {
			v = v%64 + 1
			resp, err := client.Get(fmt.Sprintf("%s/video?v=%d", srv.URL, v))
			if err != nil {
				b.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	})
}

// BenchmarkFillPath compares the fill pipelines end to end — an origin
// body committed into a file-backed store — streaming through the
// pooled scratch buffer vs the whole-chunk buffer of a store that takes
// no streams, one chunk per origin request (/chunk), and run4, the four
// missing chunks of one range as one streamed run. us/chunk and
// allocs/chunk make the three comparable; the stream variants' B/op
// must not scale with the chunk size (see TestStreamingFillMemoryBound
// for the hard bound).
func BenchmarkFillPath(b *testing.B) {
	const chunkSize = 256 * testK
	origin := httptest.NewServer(&leanOrigin{size: chunkSize * 4, chunkSize: chunkSize, buf: make([]byte, chunkSize)})
	b.Cleanup(origin.Close)
	for _, mode := range []struct {
		name    string
		streams bool
		run     int // chunks per fill
	}{{"stream", true, 1}, {"buffered", false, 1}, {"run4", true, 4}} {
		b.Run(mode.name, func(b *testing.B) {
			cache, err := cafe.New(core.Config{ChunkSize: chunkSize, DiskChunks: 64}, 1, cafe.Options{})
			if err != nil {
				b.Fatal(err)
			}
			fs, err := store.NewFS(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			var st store.Store = fs
			if !mode.streams {
				st = noStreamStore{lendingStore{fs}}
			}
			s, err := NewServer(Config{
				CacheFactory: Prebuilt(cache), Store: st,
				OriginURL: origin.URL, RedirectURL: "http://secondary.example",
				ChunkSize: chunkSize, Alpha: 1,
				Clock: func() int64 { return 0 },
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { s.Close() })
			fc := fillCtx{ctx: context.Background()}
			video := []chunk.ID{{Video: 1, Index: 0}, {Video: 1, Index: 1}, {Video: 1, Index: 2}, {Video: 1, Index: 3}}
			b.SetBytes(chunkSize * int64(mode.run))
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ids := video[i*mode.run%4:][:mode.run]
				if _, err := s.fill(&fc, ids); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				for _, id := range ids { // next pass refills
					if err := fs.Delete(id); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			chunks := float64(b.N * mode.run)
			b.ReportMetric(float64(b.Elapsed().Microseconds())/chunks, "us/chunk")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/chunks, "allocs/chunk")
		})
	}
}

// BenchmarkOriginChunk measures one whole 256 KiB chunk generated and
// served by the origin over loopback HTTP. B/op and allocs/op cover
// the client too (one process), so a chunk-sized buffer per request at
// the origin shows as B/op above the chunk size.
func BenchmarkOriginChunk(b *testing.B) {
	const chunkSize = 256 << 10
	o, err := NewOrigin(MapCatalog{1: 4 * chunkSize}, chunkSize)
	if err != nil {
		b.Fatal(err)
	}
	origin := httptest.NewServer(o)
	defer origin.Close()
	b.SetBytes(chunkSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Get(origin.URL + "/chunk?v=1&c=0")
		if err != nil {
			b.Fatal(err)
		}
		if n, err := io.Copy(io.Discard, resp.Body); err != nil || n != chunkSize {
			b.Fatalf("read %d bytes: %v", n, err)
		}
		resp.Body.Close()
	}
}
