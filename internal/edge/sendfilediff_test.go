package edge

// Differential coverage for the kernel serve path and the streaming
// fill pipeline: the sendfile/streaming machinery may only change
// which syscalls move the bytes — never a status, a body byte, or a
// /stats byte. And fills must hold O(fillStreamBuf) memory, not
// O(chunk).
//
// The server picks each path from what its store can do, so a twin on
// the reference path is built by handing it a store that can do less.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/resilience"
	"videocdn/internal/store"
)

// lendingStore forwards a store and its zero-copy reads and nothing
// else: the base of the two capability-hiding wrappers below.
type lendingStore struct{ store.Store }

func (l lendingStore) GetBorrow(id chunk.ID) (store.Borrowed, error) {
	if bg, ok := l.Store.(store.BorrowGetter); ok {
		return bg.GetBorrow(id)
	}
	return store.Borrowed{}, store.ErrNoBorrow
}

// noSectionStore is a file-backed store that streams its fills but
// hides GetSection: the server over it serves by borrow and copy.
type noSectionStore struct{ lendingStore }

func (n noSectionStore) PutStream(id chunk.ID, r io.Reader, max int64, scratch []byte) (int64, error) {
	return n.Store.(store.StreamPutter).PutStream(id, r, max, scratch)
}

// noStreamStore is a file-backed store that exposes sections but hides
// PutStream: the server over it reads every fill whole and Puts it.
type noStreamStore struct{ lendingStore }

func (n noStreamStore) GetSection(id chunk.ID) (store.Section, error) {
	return n.Store.(store.SectionGetter).GetSection(id)
}

// newSendfileVariantServer builds an edge server over a file-backed
// store, with or without the store's sections hidden from it, fronted
// by its own fault origin (each variant must see an identical fault
// stream).
func newSendfileVariantServer(t *testing.T, algo, kind string, hideSections bool, clock func() int64) (*Server, *FaultOrigin, string) {
	t.Helper()
	catalog := MapCatalog{999: 5000 * testK}
	for v := chunk.VideoID(1); v <= 32; v++ {
		catalog[v] = int64(2+v%5)*testK + int64(v%3)*100
	}
	o, err := NewOrigin(catalog, testK)
	if err != nil {
		t.Fatal(err)
	}
	fo := NewFaultOrigin(o, FaultConfig{Seed: 7})
	origin := httptest.NewServer(fo)
	t.Cleanup(origin.Close)

	var st store.Store
	switch kind {
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
	if hideSections {
		st = noSectionStore{lendingStore{st}}
	}
	s, err := NewServer(Config{
		CacheFactory: registryFactory(t, algo, 2),
		CacheConfig:  core.Config{ChunkSize: testK, DiskChunks: 2048},
		Store:        st,
		OriginURL:    origin.URL,
		RedirectURL:  "http://secondary.example",
		ChunkSize:    testK,
		Alpha:        2,
		Clock:        clock,
		Retry:        resilience.RetryPolicy{MaxAttempts: 3, BaseDelay: 1e6}, // fast retries; both variants identical
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return s, fo, srv.URL
}

// TestSendfileDifferential drives the same deterministic trace —
// including a mid-body origin-truncation phase — through sendfile-on
// and sendfile-off servers for {fs,slab} × {cafe,xlru}, asserting
// every response and the final /stats body are byte-identical, and
// that the sendfile variant really did take the kernel path.
func TestSendfileDifferential(t *testing.T) {
	for _, algo := range []string{"cafe", "xlru"} {
		for _, kind := range []string{"fs", "slab"} {
			t.Run(algo+"/"+kind, func(t *testing.T) {
				var now atomic.Int64
				clock := now.Load
				off, offFault, offURL := newSendfileVariantServer(t, algo, kind, true, clock)
				on, onFault, onURL := newSendfileVariantServer(t, algo, kind, false, clock)

				client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
					return http.ErrUseLastResponse
				}}
				get := func(base string, v chunk.VideoID, start, end int64) (int, []byte) {
					t.Helper()
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

				catalogSize := func(v chunk.VideoID) int64 {
					if v == 999 {
						return 5000 * testK
					}
					return int64(2+v%5)*testK + int64(v%3)*100
				}
				rng := rand.New(rand.NewSource(42))
				phase := func(n int) {
					for i := 0; i < n; i++ {
						v := chunk.VideoID(1 + rng.Intn(32))
						size := catalogSize(v)
						start, end := int64(0), size-1
						if rng.Intn(2) == 0 {
							c := rng.Int63n((size + testK - 1) / testK)
							start = c * testK
							end = min((c+1)*testK, size) - 1
						}
						if i%40 == 39 {
							v, start, end = 999, 0, catalogSize(999)-1
						}
						if rng.Intn(4) == 0 {
							now.Add(int64(1 + rng.Intn(600)))
						}
						c0, b0 := get(offURL, v, start, end)
						c1, b1 := get(onURL, v, start, end)
						if c0 != c1 {
							t.Fatalf("v=%d [%d,%d]: status off=%d on=%d", v, start, end, c0, c1)
						}
						if string(b0) != string(b1) {
							t.Fatalf("v=%d [%d,%d]: bodies differ (%d vs %d bytes)", v, start, end, len(b0), len(b1))
						}
					}
				}

				phase(120) // clean
				trunc := FaultConfig{Seed: 99, TruncateRate: 0.3}
				offFault.SetConfig(trunc)
				onFault.SetConfig(trunc)
				phase(80) // mid-body origin truncation: rollbacks, retries, degrades
				offFault.SetConfig(FaultConfig{Seed: 7})
				onFault.SetConfig(FaultConfig{Seed: 7})
				phase(60) // converge clean again

				// /stats must be byte-identical — which serve path ran is
				// invisible to every exported counter.
				stats := func(base string) string {
					resp, err := client.Get(base + "/stats")
					if err != nil {
						t.Fatal(err)
					}
					defer resp.Body.Close()
					b, _ := io.ReadAll(resp.Body)
					return string(b)
				}
				if so, sn := stats(offURL), stats(onURL); so != sn {
					t.Errorf("/stats diverge:\noff: %s\non:  %s", so, sn)
				}

				// The twins must really differ: the on-server served
				// file-backed chunks through the kernel path, the
				// off-server never did.
				if sendfileSupported {
					if n := on.ServePathStats().SendfileChunks; n == 0 {
						t.Errorf("sendfile-on server never took the section path")
					}
				}
				if n := off.ServePathStats().SendfileChunks; n != 0 {
					t.Errorf("sendfile-off server took the section path %d times", n)
				}
				// Both streamed their fills through the fixed buffer.
				if n := on.ServePathStats().StreamFills; n == 0 {
					t.Errorf("no streaming fills recorded")
				}
			})
		}
	}
}

// leanOrigin is an origin whose fill routes serve from a preallocated
// buffer — no per-request O(chunk) allocation — so the fill-memory
// test below measures the edge's allocations, not the test origin's.
type leanOrigin struct {
	size      int64
	chunkSize int64
	buf       []byte // written over and over; the content is not the point
}

func (o *leanOrigin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	b0, b1 := int64(0), int64(-1)
	switch r.URL.Path {
	case "/size":
		fmt.Fprintf(w, "%d", o.size)
		return
	case "/chunk":
		c, _ := strconv.ParseInt(queryParam(r, "c"), 10, 64)
		b0, b1 = c*o.chunkSize, min((c+1)*o.chunkSize, o.size)-1
	case "/video":
		b0, b1, _ = parseRange(r, o.size)
	}
	if b0 > b1 {
		http.Error(w, "no such bytes", http.StatusRequestedRangeNotSatisfiable)
		return
	}
	w.Header().Set("Content-Length", strconv.FormatInt(b1-b0+1, 10))
	for left := b1 - b0 + 1; left > 0; {
		n, _ := w.Write(o.buf[:min(left, int64(len(o.buf)))])
		if n == 0 {
			return
		}
		left -= int64(n)
	}
}

// TestStreamingFillMemoryBound pins the O(buffer) claim of streaming
// fills: a synchronous fill into a file-backed store must allocate on
// the order of fillStreamBuf, not ChunkSize, and not more for a longer
// run. 8 chunks of 2 MiB through the 256 KiB buffer — as 8 one-chunk
// fills, then as one 8-chunk run — must allocate well under one chunk
// of heap in total; the buffered path (a store that takes no streams)
// must allocate at least the full 16 MiB, proving the measurement
// would catch a regression.
func TestStreamingFillMemoryBound(t *testing.T) {
	const (
		chunkSize = int64(2 << 20)
		chunks    = 8
	)
	origin := httptest.NewServer(&leanOrigin{size: chunkSize * chunks, chunkSize: chunkSize, buf: make([]byte, chunkSize)})
	defer origin.Close()

	build := func(streams bool) *Server {
		t.Helper()
		fs, err := store.NewFS(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		var st store.Store = fs
		if !streams {
			st = noStreamStore{lendingStore{fs}}
		}
		s, err := NewServer(Config{
			CacheFactory: registryFactory(t, "cafe", 2),
			CacheConfig:  core.Config{ChunkSize: chunkSize, DiskChunks: 64},
			Store:        st,
			OriginURL:    origin.URL,
			RedirectURL:  "http://secondary.example",
			ChunkSize:    chunkSize,
			Alpha:        2,
			Clock:        func() int64 { return 0 },
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}

	// measure fills the video's chunks, run of them per fill, and
	// returns the heap bytes allocated meanwhile.
	measure := func(s *Server, run int) int64 {
		t.Helper()
		fc := fillCtx{ctx: context.Background()}
		ids := make([]chunk.ID, chunks)
		for c := range ids {
			ids[c] = chunk.ID{Video: 1, Index: uint32(c)}
		}
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		for c := 0; c < chunks; c += run {
			if _, err := s.fill(&fc, ids[c:c+run]); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&ms)
		return int64(ms.TotalAlloc - before)
	}

	for _, run := range []int{1, chunks} {
		streaming := build(true)
		if got := measure(streaming, run); got >= chunkSize {
			t.Errorf("run %d: streaming fills allocated %d bytes for %d×%d chunks; want < one %d-byte chunk",
				run, got, chunks, chunkSize, chunkSize)
		}
		sp := streaming.ServePathStats()
		if sp.StreamFills != chunks || sp.BufferedFills != 0 {
			t.Errorf("run %d: stream/buffered fills = %d/%d, want %d/0", run, sp.StreamFills, sp.BufferedFills, chunks)
		}
		// One flight at a time, one scratch buffer per flight, however
		// many chunks the flight carries.
		if sp.FillBufPeakBytes != fillStreamBuf {
			t.Errorf("run %d: peak fill scratch %d bytes, want %d", run, sp.FillBufPeakBytes, fillStreamBuf)
		}
		if sp.FillBufInFlight != 0 {
			t.Errorf("run %d: %d scratch bytes still checked out after fills returned", run, sp.FillBufInFlight)
		}

		buffered := build(false) // no PutStream: whole chunks in RAM
		if got := measure(buffered, run); got < chunkSize*chunks {
			t.Errorf("run %d: buffered fills allocated %d bytes; expected >= %d — the bound above is not measuring anything",
				run, got, chunkSize*chunks)
		}
		if sp := buffered.ServePathStats(); sp.BufferedFills != chunks || sp.StreamFills != 0 || sp.FillBufPeakBytes != 0 {
			t.Errorf("run %d: stream/buffered fills = %d/%d, scratch peak %d, want 0/%d, 0",
				run, sp.StreamFills, sp.BufferedFills, sp.FillBufPeakBytes, chunks)
		}
	}
}

// TestSendfileConcurrentSharedSegment hammers warm slab-backed hits
// with concurrent whole-video GETs through real net/http writers, so
// every serve takes the kernel section path over shared segment files.
// The Linux sendfile path consumes the open file description's
// *current offset*, so each section out at one time must come with a
// description of its own: one lent to two responses at once (or a
// dup(2), which shares the offset) would interleave their seeks and
// splice another video's bytes into the body. One segment for all
// chunks is maximal contention on one file's descriptions; four-slot
// segments make every four-chunk response cross segments, so it checks
// descriptions of several files out and back in.
func TestSendfileConcurrentSharedSegment(t *testing.T) {
	if !sendfileSupported {
		t.Skip("no sendfile on this platform")
	}
	for _, segmentSlots := range []int{64, 4} {
		t.Run(fmt.Sprintf("SegmentSlots=%d", segmentSlots), func(t *testing.T) {
			testSendfileConcurrent(t, segmentSlots)
		})
	}
}

func testSendfileConcurrent(t *testing.T, segmentSlots int) {
	catalog := MapCatalog{}
	for v := chunk.VideoID(1); v <= 8; v++ {
		catalog[v] = 4 * testK
	}
	o, err := NewOrigin(catalog, testK)
	if err != nil {
		t.Fatal(err)
	}
	origin := httptest.NewServer(o)
	t.Cleanup(origin.Close)
	sl, err := store.NewSlab(t.TempDir(), store.SlabConfig{SlotBytes: testK, SegmentSlots: segmentSlots})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sl.Close() })
	s, err := NewServer(Config{
		CacheFactory: registryFactory(t, "cafe", 2),
		CacheConfig:  core.Config{ChunkSize: testK, DiskChunks: 256},
		Store:        sl,
		OriginURL:    origin.URL,
		RedirectURL:  "http://secondary.example",
		ChunkSize:    testK,
		Alpha:        2,
		Clock:        func() int64 { return 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)

	noRedirect := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	want := make(map[chunk.VideoID][]byte)
	for v := chunk.VideoID(1); v <= 8; v++ {
		for try := 0; try < 5; try++ { // admit + fill until a full hit
			resp, err := noRedirect.Get(fmt.Sprintf("%s/video?v=%d", srv.URL, v))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode == http.StatusOK {
				want[v] = body
				break
			}
		}
		if want[v] == nil {
			t.Fatalf("video %d never became a hit", v)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
				return http.ErrUseLastResponse
			}}
			for i := 0; i < 40; i++ {
				v := chunk.VideoID(1 + (w+i)%8)
				resp, err := client.Get(fmt.Sprintf("%s/video?v=%d", srv.URL, v))
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
				if resp.StatusCode != http.StatusOK {
					t.Errorf("v=%d: status %d on a warm hit", v, resp.StatusCode)
					return
				}
				if !bytes.Equal(body, want[v]) {
					t.Errorf("v=%d: concurrent hit served wrong bytes (len %d vs %d)", v, len(body), len(want[v]))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if ps := s.ServePathStats(); ps.SendfileChunks == 0 {
		t.Fatalf("no chunk took the kernel section path: %+v", ps)
	}
}
