package edge

// Chaos tests: drive the full edge↔origin stack through injected
// outages (seeded error rates, latency spikes, mid-body truncation)
// and assert the resilience contract — clients only ever see
// 200/206/302 on /video, the circuit breaker opens and recovers, the
// Eq. 2 byte accounting reconciles exactly, and nothing leaks. Run
// them under the race detector via `make chaos`.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"videocdn/internal/cafe"
	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/resilience"
	"videocdn/internal/store"
	"videocdn/internal/xlru"
)

// countingStore wraps a Store and tallies the bytes committed by Put —
// the ground truth for "bytes actually fetched from origin", once the
// early chunks of runs that then failed are taken off again (see
// chaosRig.keptBytes).
type countingStore struct {
	store.Store
	putBytes atomic.Int64
}

func (s *countingStore) Put(id chunk.ID, data []byte) error {
	err := s.Store.Put(id, data)
	if err == nil {
		s.putBytes.Add(int64(len(data)))
	}
	return err
}

// PutStream keeps the wrapper transparent to the streaming fill
// pipeline: chaos rigs must exercise the same fixed-buffer path
// production wires up, with every committed byte still tallied. A
// backing store without the capability (e.g. store.Fault, which
// deliberately forwards nothing optional) gets a buffered fallback so
// the ledger truth is identical either way.
func (s *countingStore) PutStream(id chunk.ID, r io.Reader, max int64, scratch []byte) (int64, error) {
	sp, ok := s.Store.(store.StreamPutter)
	if !ok {
		data, err := io.ReadAll(io.LimitReader(r, max+1))
		if err != nil {
			return 0, err
		}
		if int64(len(data)) > max {
			return 0, store.ErrTooLarge
		}
		if err := s.Put(id, data); err != nil {
			return 0, err
		}
		return int64(len(data)), nil
	}
	n, err := sp.PutStream(id, r, max, scratch)
	if err == nil {
		s.putBytes.Add(n)
	}
	return n, err
}

// chaosRig is a full edge↔origin stack with fault injection between
// the two and fast retry/breaker settings suitable for tests.
type chaosRig struct {
	fault     *FaultOrigin
	originSrv *httptest.Server
	edge      *Server
	edgeSrv   *httptest.Server
	store     *countingStore
	client    *http.Client // does not follow redirects
}

// rigOptions selects the chaos rig's store backend and chunk size;
// the zero value is the classic mem-store rig.
type rigOptions struct {
	store     store.Store // nil means a fresh Mem
	chunkSize int64       // 0 means testK
	// wrapOrigin, when set, puts a handler around the fault origin.
	wrapOrigin func(*FaultOrigin) http.Handler
}

func newChaosRig(t *testing.T, c core.Cache, catalog Catalog, fault FaultConfig,
	retry resilience.RetryPolicy, breaker resilience.BreakerConfig) *chaosRig {
	return newChaosRigWith(t, c, catalog, fault, retry, breaker, rigOptions{})
}

func newChaosRigWith(t *testing.T, c core.Cache, catalog Catalog, fault FaultConfig,
	retry resilience.RetryPolicy, breaker resilience.BreakerConfig, opts rigOptions) *chaosRig {
	t.Helper()
	k := opts.chunkSize
	if k == 0 {
		k = testK
	}
	o, err := NewOrigin(catalog, k)
	if err != nil {
		t.Fatal(err)
	}
	backing := opts.store
	if backing == nil {
		backing = store.NewMem()
	}
	rig := &chaosRig{fault: NewFaultOrigin(o, fault), store: &countingStore{Store: backing}}
	var origin http.Handler = rig.fault
	if opts.wrapOrigin != nil {
		origin = opts.wrapOrigin(rig.fault)
	}
	rig.originSrv = httptest.NewServer(origin)
	t.Cleanup(rig.originSrv.Close)
	now := int64(0)
	var nowMu sync.Mutex
	s, err := NewServer(Config{
		CacheFactory: Prebuilt(c), Store: rig.store,
		OriginURL: rig.originSrv.URL, RedirectURL: "http://secondary.example",
		ChunkSize: k, Alpha: 1,
		Clock:       func() int64 { nowMu.Lock(); defer nowMu.Unlock(); now++; return now },
		FillTimeout: 5 * time.Second,
		Retry:       retry,
		Breaker:     breaker,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	rig.edge = s
	rig.edgeSrv = httptest.NewServer(s)
	t.Cleanup(rig.edgeSrv.Close)
	rig.client = &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	return rig
}

// keptBytes is what Filled must equal to the byte: everything fills put
// in the store, less what runs that failed had put before they did — a
// run is charged as a whole or not at all, and takes its chunks back.
func (r *chaosRig) keptBytes() int64 {
	return r.store.putBytes.Load() - r.edge.servePath.rollbackBytes.Load()
}

func (r *chaosRig) get(t *testing.T, v chunk.VideoID, start, end int64) (*http.Response, []byte) {
	t.Helper()
	resp, err := r.client.Get(fmt.Sprintf("%s/video?v=%d&start=%d&end=%d", r.edgeSrv.URL, v, start, end))
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

// fastRetry keeps chaos tests quick: tight backoff, a few attempts.
func fastRetry() resilience.RetryPolicy {
	return resilience.RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond}
}

// neverTrip effectively disables the breaker so retry behavior can be
// observed in isolation.
func neverTrip() resilience.BreakerConfig {
	return resilience.BreakerConfig{MinSamples: math.MaxInt32}
}

// TestChaosOnlyGoodStatusesAndAccounting is the acceptance scenario:
// ≥30% origin error rate plus latency spikes and mid-body truncation,
// concurrent clients — and still every /video response is 200/206/302
// (zero 502s), every served body is byte-exact, and the Eq. 2
// counters reconcile: Requested == served bytes + Redirected, and
// Filled equals exactly the bytes fetched from origin.
func TestChaosOnlyGoodStatusesAndAccounting(t *testing.T) {
	cache, err := xlru.New(core.Config{ChunkSize: testK, DiskChunks: 4096}, 1)
	if err != nil {
		t.Fatal(err)
	}
	catalog := DeterministicCatalog{MinBytes: 2 * testK, MaxBytes: 6 * testK}
	rig := newChaosRig(t, cache, catalog, FaultConfig{
		Seed: 42, ErrorRate: 0.35, LatencyRate: 0.2, Latency: 2 * time.Millisecond, TruncateRate: 0.15,
	}, fastRetry(), neverTrip())

	// A fill is one origin request per run of missing chunks, so the
	// walk must cover enough distinct videos for TruncateRate to act on:
	// 120 whole-video fills see 16 truncations a run on average (7 to 24
	// over 300 runs), where 16 videos saw about 4 and, one run in 30,
	// none — which the last assertion cannot tell from a dead injector.
	const goroutines, perG, videos = 8, 30, 120
	var servedBytes atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				v := chunk.VideoID(1 + (g*perG+i)%videos)
				size, _ := catalog.SizeOf(v)
				resp, body := rig.get(t, v, 0, size-1)
				switch resp.StatusCode {
				case http.StatusOK, http.StatusPartialContent:
					if !bytes.Equal(body, expected(v, 0, size-1)) {
						t.Errorf("video %d: served body mismatch (%d bytes)", v, len(body))
					}
					servedBytes.Add(int64(len(body)))
				case http.StatusFound:
					// The second line of defense; always acceptable.
				default:
					t.Errorf("video %d: status %d — clients must only see 200/206/302", v, resp.StatusCode)
				}
			}
		}(g)
	}
	wg.Wait()

	st := rig.edge.SnapshotStats()
	if st.Served+st.Redirected != goroutines*perG {
		t.Errorf("handled %d requests, want %d", st.Served+st.Redirected, goroutines*perG)
	}
	// Eq. 2 egress side: every requested byte was either served or
	// redirected, exactly.
	if st.RequestedBytes != servedBytes.Load()+st.RedirectedBytes {
		t.Errorf("Requested (%d) != served (%d) + Redirected (%d)",
			st.RequestedBytes, servedBytes.Load(), st.RedirectedBytes)
	}
	// Eq. 2 ingress side: Filled is exactly the bytes committed from
	// origin fetches — and exactly what the origin fully delivered.
	if got := rig.keptBytes(); st.FilledBytes != got {
		t.Errorf("FilledBytes = %d, store committed and kept %d", st.FilledBytes, got)
	}
	if counts := rig.fault.Counts(); st.FilledBytes != counts.ChunkBytesOK {
		t.Errorf("FilledBytes = %d, origin fully delivered %d", st.FilledBytes, counts.ChunkBytesOK)
	}
	if st.OriginRetries == 0 {
		t.Error("a 35%% error rate must cause retries")
	}
	if c := rig.fault.Counts(); c.Errors == 0 || c.Truncations == 0 || c.Spikes == 0 {
		t.Errorf("fault injection inactive: %+v", c)
	}
}

// TestChaosSlabStore reruns the acceptance chaos mix over the
// production disk store, the slab: responses must still be byte-exact,
// the Eq. 2 identities must still reconcile against the origin's
// ground truth, and the slab must come back from a cold reopen
// (header-scan recovery) holding exactly what it held at close.
func TestChaosSlabStore(t *testing.T) {
	cache, err := xlru.New(core.Config{ChunkSize: testK, DiskChunks: 4096}, 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	slabCfg := store.SlabConfig{SlotBytes: testK, SegmentSlots: 256}
	slab, err := store.NewSlab(dir, slabCfg)
	if err != nil {
		t.Fatal(err)
	}
	catalog := DeterministicCatalog{MinBytes: 2 * testK, MaxBytes: 6 * testK}
	rig := newChaosRigWith(t, cache, catalog, FaultConfig{
		Seed: 42, ErrorRate: 0.35, LatencyRate: 0.2, Latency: 2 * time.Millisecond, TruncateRate: 0.15,
	}, fastRetry(), neverTrip(), rigOptions{store: slab})

	const goroutines, perG = 8, 30
	var servedBytes atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				v := chunk.VideoID(1 + (g*perG+i)%16)
				size, _ := catalog.SizeOf(v)
				resp, body := rig.get(t, v, 0, size-1)
				switch resp.StatusCode {
				case http.StatusOK, http.StatusPartialContent:
					if !bytes.Equal(body, expected(v, 0, size-1)) {
						t.Errorf("video %d: served body mismatch (%d bytes)", v, len(body))
					}
					servedBytes.Add(int64(len(body)))
				case http.StatusFound:
				default:
					t.Errorf("video %d: status %d — clients must only see 200/206/302", v, resp.StatusCode)
				}
			}
		}(g)
	}
	wg.Wait()

	st := rig.edge.SnapshotStats()
	if st.Served+st.Redirected != goroutines*perG {
		t.Errorf("handled %d requests, want %d", st.Served+st.Redirected, goroutines*perG)
	}
	if st.RequestedBytes != servedBytes.Load()+st.RedirectedBytes {
		t.Errorf("Requested (%d) != served (%d) + Redirected (%d)",
			st.RequestedBytes, servedBytes.Load(), st.RedirectedBytes)
	}
	// A healthy disk never fails a write, so ingress equals what the
	// origin fully delivered.
	if counts := rig.fault.Counts(); st.FilledBytes != counts.ChunkBytesOK {
		t.Errorf("FilledBytes = %d, origin fully delivered %d", st.FilledBytes, counts.ChunkBytesOK)
	}

	// Cold-reopen recovery: close the slab and rebuild the index from
	// slot headers alone.
	if err := rig.edge.Close(); err != nil {
		t.Fatal(err)
	}
	want := slab.Len()
	if err := slab.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := store.NewSlab(dir, slabCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.Len() != want {
		t.Errorf("recovered %d chunks, slab held %d at close", reopened.Len(), want)
	}
}

// TestChaosStreamingFillTruncation is PR 9's chaos acceptance: the
// acceptance mix cranked to truncation-heavy (the failure mode aimed
// straight at the streaming pipeline — a fill that dies mid-body after
// bytes already flowed through the scratch buffer into the store) over
// the production slab store with synchronous streaming fills. Clients
// must still only ever see 200/206/302 with byte-exact bodies, every
// truncated stream must roll back (FilledBytes == committed bytes ==
// origin's fully-delivered bytes, bit-exact), and the rig must prove
// the streaming path — not the buffered fallback — took the traffic.
func TestChaosStreamingFillTruncation(t *testing.T) {
	// One chunk per origin Write, and chunks of several pieces where a
	// cut lands inside a later Write.
	for _, k := range []int64{testK, 2*originPiece + 1000} {
		t.Run(fmt.Sprint(k), func(t *testing.T) { chaosStreamingFillTruncation(t, k) })
	}
}

func chaosStreamingFillTruncation(t *testing.T, k int64) {
	cache, err := xlru.New(core.Config{ChunkSize: k, DiskChunks: 4096}, 1)
	if err != nil {
		t.Fatal(err)
	}
	slab, err := store.NewSlab(t.TempDir(), store.SlabConfig{SlotBytes: k, SegmentSlots: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { slab.Close() })
	catalog := DeterministicCatalog{MinBytes: 2 * k, MaxBytes: 6 * k}
	rig := newChaosRigWith(t, cache, catalog, FaultConfig{
		Seed: 43, ErrorRate: 0.1, TruncateRate: 0.35,
	}, fastRetry(), neverTrip(), rigOptions{store: slab, chunkSize: k, wrapOrigin: cutFirstRun(k)})

	const goroutines, perG = 8, 30
	var servedBytes atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				v := chunk.VideoID(1 + (g*perG+i)%16)
				size, _ := catalog.SizeOf(v)
				resp, body := rig.get(t, v, 0, size-1)
				switch resp.StatusCode {
				case http.StatusOK, http.StatusPartialContent:
					if !bytes.Equal(body, refRange(v, k, 0, size-1)) {
						t.Errorf("video %d: served body mismatch (%d bytes)", v, len(body))
					}
					servedBytes.Add(int64(len(body)))
				case http.StatusFound:
				default:
					t.Errorf("video %d: status %d — clients must only see 200/206/302", v, resp.StatusCode)
				}
			}
		}(g)
	}
	wg.Wait()

	st := rig.edge.SnapshotStats()
	if st.Served+st.Redirected != goroutines*perG {
		t.Errorf("handled %d requests, want %d", st.Served+st.Redirected, goroutines*perG)
	}
	if st.RequestedBytes != servedBytes.Load()+st.RedirectedBytes {
		t.Errorf("Requested (%d) != served (%d) + Redirected (%d)",
			st.RequestedBytes, servedBytes.Load(), st.RedirectedBytes)
	}
	// The rollback contract under mid-body truncation: a stream that
	// died after pumping bytes into the slab must leave no charge and
	// no bytes — Filled, the store's committed bytes, and the origin's
	// fully-delivered bytes agree exactly.
	if got := rig.keptBytes(); st.FilledBytes != got {
		t.Errorf("FilledBytes = %d, store committed and kept %d — a truncated stream leaked a charge",
			st.FilledBytes, got)
	}
	if rig.edge.servePath.rollbackBytes.Load() == 0 {
		t.Error("no run was cut after its first chunk — the rollback was not exercised")
	}
	if counts := rig.fault.Counts(); st.FilledBytes != counts.ChunkBytesOK {
		t.Errorf("FilledBytes = %d, origin fully delivered %d", st.FilledBytes, counts.ChunkBytesOK)
	}
	if c := rig.fault.Counts(); c.Truncations == 0 {
		t.Errorf("truncation injection inactive: %+v", c)
	}
	// And the paths must be the ones under test: every fill streamed,
	// none buffered, all scratch buffers back in the pool.
	sp := rig.edge.ServePathStats()
	if sp.StreamFills == 0 {
		t.Error("no streaming fills — the chaos ran against the wrong pipeline")
	}
	if sp.BufferedFills != 0 {
		t.Errorf("%d fills took the buffered fallback over a streaming store", sp.BufferedFills)
	}
	if sp.FillBufInFlight != 0 {
		t.Errorf("%d scratch bytes still checked out after the run", sp.FillBufInFlight)
	}
}

// cutFirstRun cuts the first fill of a run of two chunks or more at
// half its length, so at least its first chunk is in the store when
// the stream dies. Which fills the seeded faults cut depends on the
// order in which concurrent requests reach the origin; this cut makes
// one run's rollback certain whatever that order.
func cutFirstRun(k int64) func(*FaultOrigin) http.Handler {
	var done atomic.Bool
	return func(f *FaultOrigin) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			q := r.URL.Query()
			start, err0 := strconv.ParseInt(q.Get("start"), 10, 64)
			end, err1 := strconv.ParseInt(q.Get("end"), 10, 64)
			if r.URL.Path == "/video" && err0 == nil && err1 == nil && end-start+1 >= 2*k &&
				done.CompareAndSwap(false, true) {
				f.cut(w, r)
			}
			f.ServeHTTP(w, r)
		})
	}
}

// TestChaosBreakerOpensAndRecovers scripts a full outage: the breaker
// trips open (requests degrade to fast 302s without contacting the
// origin), then a probe after the open interval closes it again.
func TestChaosBreakerOpensAndRecovers(t *testing.T) {
	cache, err := xlru.New(core.Config{ChunkSize: testK, DiskChunks: 4096}, 1)
	if err != nil {
		t.Fatal(err)
	}
	catalog := DeterministicCatalog{MinBytes: 2 * testK, MaxBytes: 4 * testK}
	breaker := resilience.BreakerConfig{
		Window: time.Minute, MinSamples: 4, FailureRate: 0.5,
		OpenFor: 500 * time.Millisecond, MaxProbes: 1, ProbesToClose: 1,
	}
	rig := newChaosRig(t, cache, catalog, FaultConfig{}, // healthy to start
		resilience.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond}, breaker)

	size := func(v chunk.VideoID) int64 { s, _ := catalog.SizeOf(v); return s }

	// Phase 1: healthy serve.
	if resp, _ := rig.get(t, 1, 0, size(1)-1); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy: status %d", resp.StatusCode)
	}

	// Phase 2: total outage. Every request degrades to 302; within a
	// few requests the failure rate trips the breaker.
	rig.fault.SetConfig(FaultConfig{Seed: 7, ErrorRate: 1})
	tripped := false
	for v := chunk.VideoID(10); v < 20; v++ {
		resp, _ := rig.get(t, v, 0, size(v)-1)
		if resp.StatusCode != http.StatusFound {
			t.Fatalf("outage: video %d status %d, want 302", v, resp.StatusCode)
		}
		if rig.edge.BreakerState() == resilience.Open {
			tripped = true
			break
		}
	}
	if !tripped {
		t.Fatal("breaker never opened during a total outage")
	}

	// While open, requests fail fast: the origin sees at most one
	// probe even though we keep hammering.
	before := rig.fault.Counts().Requests
	for v := chunk.VideoID(30); v < 35; v++ {
		resp, _ := rig.get(t, v, 0, size(v)-1)
		if resp.StatusCode != http.StatusFound {
			t.Errorf("open breaker: video %d status %d, want 302", v, resp.StatusCode)
		}
	}
	if after := rig.fault.Counts().Requests; after > before+1 {
		t.Errorf("open breaker leaked %d origin calls", after-before)
	}

	// Phase 3: origin heals. After OpenFor the next request probes
	// (half-open), succeeds, closes the breaker and serves.
	rig.fault.SetConfig(FaultConfig{})
	deadline := time.Now().Add(5 * time.Second)
	recovered := false
	for v := chunk.VideoID(50); time.Now().Before(deadline); v++ {
		resp, body := rig.get(t, v, 0, size(v)-1)
		if resp.StatusCode == http.StatusOK && bytes.Equal(body, expected(v, 0, size(v)-1)) {
			recovered = true
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !recovered {
		t.Fatal("edge never recovered after the origin healed")
	}
	if got := rig.edge.BreakerState(); got != resilience.Closed {
		t.Errorf("breaker state after recovery = %v, want closed", got)
	}
	st := rig.edge.SnapshotStats()
	if st.BreakerOpens == 0 {
		t.Error("breaker opens must be counted")
	}
	if st.DegradedRedirects == 0 {
		t.Error("degraded redirects must be counted")
	}
}

// TestChaosDegradeRollsBackAdmission pins the consistency contract of
// degrade-to-redirect: a failed fill's admission is undone in both
// cache and store, the bytes are charged as Redirected (not Filled),
// and the request heals normally once the origin returns.
func TestChaosDegradeRollsBackAdmission(t *testing.T) {
	cache, err := xlru.New(core.Config{ChunkSize: testK, DiskChunks: 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	catalog := MapCatalog{1: 2 * testK}
	rig := newChaosRig(t, cache, catalog, FaultConfig{}, fastRetry(), neverTrip())

	// Warm chunk 0 only; the size is now cached at the edge.
	if resp, _ := rig.get(t, 1, 0, testK-1); resp.StatusCode != http.StatusOK &&
		resp.StatusCode != http.StatusPartialContent {
		t.Fatal("warmup failed")
	}

	// Outage. The request admits chunk 1, whose fill fails: the edge
	// must roll the admission back and answer 302.
	rig.fault.SetConfig(FaultConfig{Seed: 1, ErrorRate: 1})
	resp, _ := rig.get(t, 1, 0, 2*testK-1)
	if resp.StatusCode != http.StatusFound {
		t.Fatalf("during outage: status %d, want 302", resp.StatusCode)
	}
	if cache.Contains(chunk.ID{Video: 1, Index: 1}) {
		t.Error("failed fill's admission must be forgotten by the cache")
	}
	if rig.store.Has(chunk.ID{Video: 1, Index: 1}) {
		t.Error("failed fill must leave no bytes in the store")
	}
	if !cache.Contains(chunk.ID{Video: 1, Index: 0}) || !rig.store.Has(chunk.ID{Video: 1, Index: 0}) {
		t.Error("previously cached chunk must survive the rollback")
	}
	st := rig.edge.SnapshotStats()
	if st.DegradedRedirects != 1 {
		t.Errorf("DegradedRedirects = %d, want 1", st.DegradedRedirects)
	}
	if st.FilledBytes != testK {
		t.Errorf("FilledBytes = %d, want %d (only the warmed chunk)", st.FilledBytes, testK)
	}
	if st.RequestedBytes != testK+2*testK || st.RedirectedBytes != 2*testK {
		t.Errorf("accounting: requested %d redirected %d", st.RequestedBytes, st.RedirectedBytes)
	}

	// Heal: the same request now serves byte-exactly.
	rig.fault.SetConfig(FaultConfig{})
	resp, body := rig.get(t, 1, 0, 2*testK-1)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after heal: status %d", resp.StatusCode)
	}
	if !bytes.Equal(body, expected(1, 0, 2*testK-1)) {
		t.Error("healed body mismatch")
	}
}

// TestChaosFlightCoalescingExactlyOneFetch is the concurrency
// contract of fill(): N concurrent requests for the same missing chunk
// trigger exactly one origin fetch.
func TestChaosFlightCoalescingExactlyOneFetch(t *testing.T) {
	cache, err := xlru.New(core.Config{ChunkSize: testK, DiskChunks: 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewOrigin(MapCatalog{1: 4 * testK}, testK)
	if err != nil {
		t.Fatal(err)
	}
	// The origin answers late enough for every waiter to join the
	// first flight: a waiter arriving after it landed rightly starts a
	// second one, which an instant origin let happen about once in a
	// thousand runs.
	counting := &countingOrigin{inner: NewFaultOrigin(o, FaultConfig{LatencyRate: 1, Latency: 50 * time.Millisecond})}
	originSrv := httptest.NewServer(counting)
	defer originSrv.Close()
	s, err := NewServer(Config{
		CacheFactory: Prebuilt(cache), Store: store.NewMem(),
		OriginURL: originSrv.URL, RedirectURL: "http://secondary.example",
		ChunkSize: testK, Alpha: 1, Clock: func() int64 { return 0 },
	})
	if err != nil {
		t.Fatal(err)
	}

	id := chunk.ID{Video: 1, Index: 0}
	const waiters = 32
	start := make(chan struct{})
	errs := make([]error, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			_, errs[i] = s.fill(&fillCtx{ctx: context.Background()}, []chunk.ID{id})
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("waiter %d: %v", i, err)
		}
	}
	counting.mu.Lock()
	n := counting.fills["v=1&c=0"]
	counting.mu.Unlock()
	if n != 1 || len(counting.fills) != 1 {
		t.Errorf("origin fetches %v, want the chunk exactly once", counting.fills)
	}
}

// TestChaosFlightCancellationDoesNotPoisonWaiters: a waiter whose
// context dies abandons the flight without cancelling it; the
// remaining waiters still get the chunk, from a single origin fetch.
func TestChaosFlightCancellationDoesNotPoisonWaiters(t *testing.T) {
	cache, err := xlru.New(core.Config{ChunkSize: testK, DiskChunks: 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewOrigin(MapCatalog{1: 4 * testK}, testK)
	if err != nil {
		t.Fatal(err)
	}
	fault := NewFaultOrigin(o, FaultConfig{LatencyRate: 1, Latency: 150 * time.Millisecond})
	originSrv := httptest.NewServer(fault)
	defer originSrv.Close()
	mem := store.NewMem()
	s, err := NewServer(Config{
		CacheFactory: Prebuilt(cache), Store: mem,
		OriginURL: originSrv.URL, RedirectURL: "http://secondary.example",
		ChunkSize: testK, Alpha: 1, Clock: func() int64 { return 0 },
	})
	if err != nil {
		t.Fatal(err)
	}

	id := chunk.ID{Video: 1, Index: 0}
	ctxA, cancelA := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancelA()
	var wg sync.WaitGroup
	var errA, errB error
	wg.Add(2)
	go func() { defer wg.Done(); _, errA = s.fill(&fillCtx{ctx: ctxA}, []chunk.ID{id}) }()
	go func() {
		defer wg.Done()
		_, errB = s.fill(&fillCtx{ctx: context.Background()}, []chunk.ID{id})
	}()
	wg.Wait()

	if errA == nil {
		t.Error("cancelled waiter should have returned its context error")
	}
	// The surviving waiter gets the chunk: the flight ran to completion
	// despite waiter A abandoning it. (The store bytes themselves are
	// orphan-cleaned right after, since nothing admitted the chunk.)
	if errB != nil {
		t.Errorf("surviving waiter: %v", errB)
	}
	if n := fault.Counts().Requests; n != 1 {
		t.Errorf("origin saw %d fetches, want 1", n)
	}
	// No admission claimed the chunk, so the flight's orphan cleanup
	// must have dropped the bytes (store and cache stay in sync).
	if mem.Has(id) {
		t.Error("unclaimed bytes must not squat in the store")
	}
}

// TestChaosRunCutMidBody: a run is all or nothing. The body of a
// 4-chunk run is cut at half its length, after chunks 0 and 1 went
// into the store. With retries off nothing of the run may remain — no
// store key, no residency, no charge — and the client gets the second
// line of defense; with retries on the second attempt lands the run
// and it is charged exactly once.
func TestChaosRunCutMidBody(t *testing.T) {
	const size = 4 * testK
	run := func(t *testing.T, fault FaultConfig, retry resilience.RetryPolicy) (*chaosRig, *xlru.Cache, *http.Response, []byte) {
		cache, err := xlru.New(core.Config{ChunkSize: testK, DiskChunks: 64}, 1)
		if err != nil {
			t.Fatal(err)
		}
		rig := newChaosRig(t, cache, MapCatalog{1: size}, fault, retry, neverTrip())
		resp, body := rig.get(t, 1, 0, size-1)
		if c := rig.fault.Counts(); c.Truncations != 1 {
			t.Fatalf("fault pattern drifted: %+v, want exactly one cut", c)
		}
		if got := rig.edge.servePath.rollbackBytes.Load(); got != 2*testK {
			t.Errorf("rolled back %d bytes, want %d (chunks 0 and 1 of the cut attempt)", got, 2*testK)
		}
		return rig, cache, resp, body
	}
	t.Run("retries off", func(t *testing.T) {
		rig, cache, resp, _ := run(t, FaultConfig{TruncateRate: 1}, resilience.RetryPolicy{MaxAttempts: 1})
		if resp.StatusCode != http.StatusFound {
			t.Errorf("status %d, want 302", resp.StatusCode)
		}
		for c := uint32(0); c < 4; c++ {
			id := chunk.ID{Video: 1, Index: c}
			if rig.store.Has(id) || cache.Contains(id) {
				t.Errorf("chunk %d survives the failed run: store %v, policy %v", c, rig.store.Has(id), cache.Contains(id))
			}
		}
		st := rig.edge.SnapshotStats()
		if st.FilledBytes != 0 || st.FillErrors != 1 || st.DegradedRedirects != 1 || st.RedirectedBytes != size {
			t.Errorf("ledger after the failed run: %+v", st)
		}
	})
	t.Run("retries on", func(t *testing.T) {
		// Seed 4 at rate 0.5 cuts the second request (the first attempt
		// of the run) and not the third.
		rig, _, resp, body := run(t, FaultConfig{Seed: 4, TruncateRate: 0.5}, fastRetry())
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, expected(1, 0, size-1)) {
			t.Errorf("status %d, %d bytes; want the whole video", resp.StatusCode, len(body))
		}
		st := rig.edge.SnapshotStats()
		if st.FilledBytes != size || st.OriginRetries != 1 || st.FillErrors != 0 {
			t.Errorf("FilledBytes %d retries %d fill errors %d, want %d, 1, 0", st.FilledBytes, st.OriginRetries, st.FillErrors, size)
		}
		if got := rig.fault.Counts().ChunkBytesOK; got != size {
			t.Errorf("origin fully delivered %d bytes, want %d", got, size)
		}
		if got := rig.keptBytes(); got != size {
			t.Errorf("store committed and kept %d bytes, want %d", got, size)
		}
	})
}

// TestChaosCutRunRolledBackAfterClientLeft: a run whose requester has
// gone still takes back what each cut attempt put. The flight runs on
// detached after the client leaves, the requester's rollback has
// already run, and a failed flight sweeps no orphans, so the attempt's
// own rollback is all that keeps the store in step with the cache.
func TestChaosCutRunRolledBackAfterClientLeft(t *testing.T) {
	const size, attempts = 4 * testK, 3
	cache, err := xlru.New(core.Config{ChunkSize: testK, DiskChunks: 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Every attempt at the run is cut after two of its four chunks; the
	// last one waits until the client has left and its request has
	// rolled back.
	var runs atomic.Int32
	lastAttempt, release := make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	t.Cleanup(func() { releaseOnce.Do(func() { close(release) }) })
	cutEvery := func(f *FaultOrigin) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/video" {
				f.ServeHTTP(w, r)
				return
			}
			if runs.Add(1) == attempts {
				close(lastAttempt)
				<-release
			}
			f.cut(w, r)
		})
	}
	retry := resilience.RetryPolicy{MaxAttempts: attempts, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}
	rig := newChaosRigWith(t, cache, MapCatalog{1: size}, FaultConfig{}, retry, neverTrip(), rigOptions{wrapOrigin: cutEvery})

	ctx, leave := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/video?v=1&start=0&end=%d", rig.edgeSrv.URL, size-1), nil)
	if err != nil {
		t.Fatal(err)
	}
	gone := make(chan struct{})
	go func() {
		defer close(gone)
		if resp, err := rig.client.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	select {
	case <-lastAttempt:
	case <-time.After(5 * time.Second):
		t.Fatalf("the origin saw %d attempts at the run, want %d", runs.Load(), attempts)
	}
	leave()
	<-gone
	waitFor(t, "the request to degrade", func() bool { return rig.edge.SnapshotStats().DegradedRedirects == 1 })
	releaseOnce.Do(func() { close(release) })
	waitFor(t, "the flight to end", rig.edge.flightsIdle)

	if c := rig.fault.Counts(); c.Truncations != attempts {
		t.Fatalf("origin cut %d attempts, want %d", c.Truncations, attempts)
	}
	for c := uint32(0); c < 4; c++ {
		id := chunk.ID{Video: 1, Index: c}
		if rig.store.Has(id) || cache.Contains(id) {
			t.Errorf("chunk %d outlives the failed run: store %v, policy %v", c, rig.store.Has(id), cache.Contains(id))
		}
	}
	if st := rig.edge.SnapshotStats(); st.FilledBytes != 0 || st.FillErrors != 1 {
		t.Errorf("FilledBytes %d, FillErrors %d; want 0 and 1", st.FilledBytes, st.FillErrors)
	}
}

// TestChaosOverlappingRangesFetchOnce: two concurrent requests whose
// missing ranges overlap — chunks 0-3 and 2-5 of a cold video — fetch
// every chunk from the origin exactly once between them, whichever
// gets to the policy first, and both bodies are exact.
func TestChaosOverlappingRangesFetchOnce(t *testing.T) {
	cache, err := xlru.New(core.Config{ChunkSize: testK, DiskChunks: 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A slow origin keeps the first run in flight while the other
	// request decides.
	rig := newChaosRig(t, cache, MapCatalog{1: 6 * testK},
		FaultConfig{LatencyRate: 1, Latency: 30 * time.Millisecond}, fastRetry(), neverTrip())
	var wg sync.WaitGroup
	for _, c0 := range []int64{0, 2} {
		wg.Add(1)
		go func(b0, b1 int64) {
			defer wg.Done()
			resp, body := rig.get(t, 1, b0, b1)
			if resp.StatusCode != http.StatusPartialContent || !bytes.Equal(body, refRange(1, testK, b0, b1)) {
				t.Errorf("range %d-%d: status %d, %d bytes", b0, b1, resp.StatusCode, len(body))
			}
		}(c0*testK, (c0+4)*testK-1)
	}
	wg.Wait()
	st, counts := rig.edge.SnapshotStats(), rig.fault.Counts()
	if counts.ChunkBytesOK != 6*testK || st.FilledBytes != 6*testK {
		t.Errorf("origin delivered %d bytes, Filled %d; want the 6 distinct chunks (%d) once", counts.ChunkBytesOK, st.FilledBytes, 6*testK)
	}
	if st.FillErrors != 0 || st.Redirected != 0 {
		t.Errorf("stats: %+v", st)
	}
}

// TestChaosRunsJoinFlightsUnderWay is the same contract at the fill
// entry point, with the overlap made certain: while the run for chunks
// 0-3 is in flight, a fill of chunks 2-5 waits for that flight for the
// chunks they share and fetches only the rest — two origin requests,
// six chunks, each once.
func TestChaosRunsJoinFlightsUnderWay(t *testing.T) {
	cache, err := xlru.New(core.Config{ChunkSize: testK, DiskChunks: 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	rig := newChaosRig(t, cache, MapCatalog{1: 6 * testK},
		FaultConfig{LatencyRate: 1, Latency: 50 * time.Millisecond}, fastRetry(), neverTrip())
	ids := make([]chunk.ID, 6)
	for c := range ids {
		ids[c] = chunk.ID{Video: 1, Index: uint32(c)}
	}
	fill := func(part []chunk.ID) {
		if i, err := rig.edge.fill(&fillCtx{ctx: context.Background()}, part); err != nil {
			t.Errorf("fill %v: failed at %d: %v", part, i, err)
		}
	}
	done := make(chan struct{})
	go func() { defer close(done); fill(ids[:4]) }()
	for registered := false; !registered; time.Sleep(time.Millisecond) {
		rig.edge.flightMu.Lock()
		_, registered = rig.edge.flights[ids[3].Key()]
		rig.edge.flightMu.Unlock()
	}
	fill(ids[2:])
	<-done
	st, counts := rig.edge.SnapshotStats(), rig.fault.Counts()
	if counts.Requests != 2 || counts.ChunkBytesOK != 6*testK || st.FilledBytes != 6*testK {
		t.Errorf("origin saw %d requests and delivered %d bytes, Filled %d; want 2, %d, %d",
			counts.Requests, counts.ChunkBytesOK, st.FilledBytes, 6*testK, 6*testK)
	}
	if got := rig.store.putBytes.Load(); got != 6*testK {
		t.Errorf("store took %d bytes, want each of the 6 chunks once (%d)", got, 6*testK)
	}
}

// TestChaosHitInTheMiddleMakesTwoRuns: with chunk 2 resident, a request
// for chunks 0-3 fills 0, 1 and 3 — two runs, two origin requests.
func TestChaosHitInTheMiddleMakesTwoRuns(t *testing.T) {
	cache, err := xlru.New(core.Config{ChunkSize: testK, DiskChunks: 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	rig := newChaosRig(t, cache, MapCatalog{1: 4 * testK}, FaultConfig{}, fastRetry(), neverTrip())
	if resp, _ := rig.get(t, 1, 2*testK, 3*testK-1); resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("warming chunk 2: status %d", resp.StatusCode)
	}
	before := rig.fault.Counts()
	resp, body := rig.get(t, 1, 0, 4*testK-1)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, expected(1, 0, 4*testK-1)) {
		t.Fatalf("status %d, %d bytes", resp.StatusCode, len(body))
	}
	after := rig.fault.Counts()
	if n := after.Requests - before.Requests; n != 2 {
		t.Errorf("origin saw %d requests for fills 0,1,3; want 2 (runs 0-1 and 3)", n)
	}
	if n := after.ChunkBytesOK - before.ChunkBytesOK; n != 3*testK {
		t.Errorf("origin delivered %d bytes, want %d", n, 3*testK)
	}
	if st := rig.edge.SnapshotStats(); st.FilledBytes != 4*testK {
		t.Errorf("FilledBytes = %d, want %d", st.FilledBytes, 4*testK)
	}
}

// TestChaosNoGoroutineLeak hammers the edge with faults, slow origin
// responses and impatient clients, then requires the goroutine count
// to settle back to the baseline.
func TestChaosNoGoroutineLeak(t *testing.T) {
	cache, err := xlru.New(core.Config{ChunkSize: testK, DiskChunks: 4096}, 1)
	if err != nil {
		t.Fatal(err)
	}
	catalog := DeterministicCatalog{MinBytes: 2 * testK, MaxBytes: 4 * testK}
	rig := newChaosRig(t, cache, catalog, FaultConfig{
		Seed: 3, ErrorRate: 0.3, LatencyRate: 1, Latency: 30 * time.Millisecond,
	}, resilience.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond}, neverTrip())

	// Baseline after the stack (conn pools etc.) is warm.
	rig.get(t, 1, 0, testK-1)
	before := runtime.NumGoroutine()

	impatient := &http.Client{Timeout: 10 * time.Millisecond}
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v := chunk.VideoID(2 + i%8)
			size, _ := catalog.SizeOf(v)
			url := fmt.Sprintf("%s/video?v=%d&start=0&end=%d", rig.edgeSrv.URL, v, size-1)
			// Impatient clients abandon mid-fill; patient ones follow up.
			if resp, err := impatient.Get(url); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			resp, err := rig.client.Get(url)
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}(i)
	}
	wg.Wait()

	impatient.CloseIdleConnections()
	rig.client.CloseIdleConnections()
	rig.edge.cfg.Client.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+8 {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Errorf("goroutines: %d at baseline, %d after settling — leak", before, runtime.NumGoroutine())
}

// TestFilledBytesExactOnShortTailChunk pins ingress accounting to the
// bytes actually fetched: a video whose final chunk is short is fetched
// as one run, charged its true size, and every chunk of the run lands
// in the store at its exact length — full, full, a quarter.
func TestFilledBytesExactOnShortTailChunk(t *testing.T) {
	cache, err := xlru.New(core.Config{ChunkSize: testK, DiskChunks: 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	size := int64(2*testK + testK/4) // 2.25 chunks
	rig := newChaosRig(t, cache, MapCatalog{1: size}, FaultConfig{}, fastRetry(), neverTrip())
	resp, body := rig.get(t, 1, 0, size-1)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !bytes.Equal(body, expected(1, 0, size-1)) {
		t.Fatalf("body mismatch (%d bytes, want %d)", len(body), size)
	}
	if st := rig.edge.SnapshotStats(); st.FilledBytes != size {
		t.Errorf("FilledBytes = %d, want %d (exact tail accounting)", st.FilledBytes, size)
	}
	for c, want := range []int{testK, testK, testK / 4} {
		if got, err := rig.store.Get(chunk.ID{Video: 1, Index: uint32(c)}, nil); err != nil || len(got) != want {
			t.Errorf("chunk %d in the store: %d bytes, %v; want %d", c, len(got), err, want)
		}
	}
	if n := rig.fault.Counts().Requests; n != 2 {
		t.Errorf("origin saw %d requests, want 2 (the size and one run)", n)
	}
}

// TestPrefetchChargesActualTailBytes is the /prefetch variant of the
// tail-chunk accounting fix.
func TestPrefetchChargesActualTailBytes(t *testing.T) {
	cache, err := cafe.New(core.Config{ChunkSize: testK, DiskChunks: 64}, 1, cafe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	size := int64(testK + testK/2) // chunk 1 is a half chunk
	rig := newChaosRig(t, cache, MapCatalog{1: size}, FaultConfig{}, fastRetry(), neverTrip())
	// Establish popularity on chunk 0.
	rig.get(t, 1, 0, testK-1)
	rig.get(t, 1, 0, testK-1)
	before := rig.edge.SnapshotStats().FilledBytes

	resp, err := http.Post(rig.edgeSrv.URL+"/prefetch?v=1&chunks=4", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prefetch status %d: %s", resp.StatusCode, b)
	}
	after := rig.edge.SnapshotStats().FilledBytes
	if got := after - before; got != testK/2 {
		t.Errorf("prefetch charged %d filled bytes, want %d (the tail chunk's true size)", got, testK/2)
	}
}

// TestSelfHealCountsIngress pins the self-heal accounting fix: a chunk
// re-fetched because the store lost it is real ingress and appears in
// both Filled and the self_heals counter.
func TestSelfHealCountsIngress(t *testing.T) {
	cache, err := xlru.New(core.Config{ChunkSize: testK, DiskChunks: 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	rig := newChaosRig(t, cache, MapCatalog{1: 2 * testK}, FaultConfig{}, fastRetry(), neverTrip())
	rig.get(t, 1, 0, 2*testK-1)
	if st := rig.edge.SnapshotStats(); st.FilledBytes != 2*testK || st.SelfHeals != 0 {
		t.Fatalf("after warmup: %+v", st)
	}
	// Sabotage the store behind the cache's back.
	if err := rig.store.Delete(chunk.ID{Video: 1, Index: 1}); err != nil {
		t.Fatal(err)
	}
	resp, body := rig.get(t, 1, 0, 2*testK-1)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !bytes.Equal(body, expected(1, 0, 2*testK-1)) {
		t.Error("healed body mismatch")
	}
	st := rig.edge.SnapshotStats()
	if st.SelfHeals != 1 {
		t.Errorf("SelfHeals = %d, want 1", st.SelfHeals)
	}
	if st.FilledBytes != 3*testK {
		t.Errorf("FilledBytes = %d, want %d (self-heal is real ingress)", st.FilledBytes, 3*testK)
	}
}

// losingStore acknowledges a Put of its lost chunk and keeps nothing,
// while lose is set.
type losingStore struct {
	store.Store
	lost chunk.ID
	lose atomic.Bool
}

func (s *losingStore) Put(id chunk.ID, data []byte) error {
	if s.lose.Load() && id == s.lost {
		return nil
	}
	return s.Store.Put(id, data)
}

// TestChaosHealThatLosesItsChunkDegrades: heal checks the store after
// its fill, and a chunk still missing degrades the request to a 302
// before any header is sent, with the admission rolled back.
func TestChaosHealThatLosesItsChunkDegrades(t *testing.T) {
	cache, err := xlru.New(core.Config{ChunkSize: testK, DiskChunks: 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	id := chunk.ID{Video: 1, Index: 1}
	losing := &losingStore{Store: store.NewMem(), lost: id}
	rig := newChaosRigWith(t, cache, MapCatalog{1: 2 * testK}, FaultConfig{}, fastRetry(), neverTrip(), rigOptions{store: losing})
	if resp, _ := rig.get(t, 1, 0, 2*testK-1); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up: status %d", resp.StatusCode)
	}
	if err := rig.store.Delete(id); err != nil {
		t.Fatal(err)
	}
	losing.lose.Store(true)
	resp, _ := rig.get(t, 1, 0, 2*testK-1)
	if resp.StatusCode != http.StatusFound {
		t.Errorf("status %d, want 302", resp.StatusCode)
	}
	if cache.Contains(id) {
		t.Error("the chunk heal could not keep is still admitted")
	}
	if st := rig.edge.SnapshotStats(); st.FillErrors != 1 || st.DegradedRedirects != 1 || st.SelfHeals != 0 {
		t.Errorf("fill_errors %d, degraded %d, self_heals %d; want 1, 1, 0", st.FillErrors, st.DegradedRedirects, st.SelfHeals)
	}
}

// TestChaosStoreFaultsNever5xxAndLedgerExact extends fault injection
// past the origin to the cache disk itself (store.Fault): Puts fail
// with ENOSPC, Gets with EIO, Deletes with EIO — mid-run, under
// concurrency — and still clients only ever see 200/206/302. A failed
// fill degrades to 302 before headers; a read fault on an
// already-committed 200 can only truncate the body (never corrupt it),
// so the Eq. 2 egress identity is pinned against *intended* response
// lengths: Requested == Σ Content-Length of 2xx + Redirected, exactly.
// The ingress side stays exact too: Filled equals the bytes the store
// actually committed, not what the origin delivered (ENOSPC'd chunks
// are origin bytes that must not be charged).
func TestChaosStoreFaultsNever5xxAndLedgerExact(t *testing.T) {
	cache, err := xlru.New(core.Config{ChunkSize: testK, DiskChunks: 4096}, 1)
	if err != nil {
		t.Fatal(err)
	}
	catalog := DeterministicCatalog{MinBytes: 2 * testK, MaxBytes: 6 * testK}
	faulty := store.NewFault(store.NewMem(), store.FaultConfig{
		Seed: 11, PutRate: 0.2, GetRate: 0.1, DeleteRate: 0.2,
	})
	rig := newChaosRigWith(t, cache, catalog, FaultConfig{}, // origin healthy: the disk is the chaos
		fastRetry(), neverTrip(), rigOptions{store: faulty})

	// A mid-stream read fault truncates the body below the declared
	// Content-Length, which Go's client surfaces as unexpected EOF —
	// that is the truncation signal, not a test failure.
	getTolerant := func(v chunk.VideoID, size int64) (*http.Response, []byte) {
		resp, err := rig.client.Get(fmt.Sprintf("%s/video?v=%d&start=0&end=%d", rig.edgeSrv.URL, v, size-1))
		if err != nil {
			t.Error(err)
			return nil, nil
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil && err != io.ErrUnexpectedEOF {
			t.Error(err)
			return nil, nil
		}
		return resp, body
	}

	const goroutines, perG = 8, 30
	var intended2xx atomic.Int64 // Σ Content-Length of 2xx responses
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				v := chunk.VideoID(1 + (g*perG+i)%16)
				size, _ := catalog.SizeOf(v)
				resp, body := getTolerant(v, size)
				if resp == nil {
					continue
				}
				switch resp.StatusCode {
				case http.StatusOK, http.StatusPartialContent:
					// A disk read fault mid-stream truncates; what did
					// arrive must be a byte-exact prefix.
					want := expected(v, 0, size-1)
					if len(body) > len(want) || !bytes.Equal(body, want[:len(body)]) {
						t.Errorf("video %d: body is not a prefix of the truth (%d bytes)", v, len(body))
					}
					intended2xx.Add(resp.ContentLength)
				case http.StatusFound:
					// ENOSPC on fill → degrade: the second line holds.
				default:
					t.Errorf("video %d: status %d — disk faults must never surface as 5xx", v, resp.StatusCode)
				}
			}
		}(g)
	}
	wg.Wait()

	st := rig.edge.SnapshotStats()
	if st.Served+st.Redirected != goroutines*perG {
		t.Errorf("handled %d requests, want %d", st.Served+st.Redirected, goroutines*perG)
	}
	if st.RequestedBytes != intended2xx.Load()+st.RedirectedBytes {
		t.Errorf("Requested (%d) != Σ 2xx Content-Length (%d) + Redirected (%d)",
			st.RequestedBytes, intended2xx.Load(), st.RedirectedBytes)
	}
	if got := rig.keptBytes(); st.FilledBytes != got {
		t.Errorf("FilledBytes = %d, store committed and kept %d — ENOSPC'd bytes must not be charged",
			st.FilledBytes, got)
	}
	fc := faulty.Counts()
	if fc.PutFaults == 0 || fc.GetFaults == 0 {
		t.Errorf("fault injection inactive: %+v", fc)
	}
	if st.DegradedRedirects == 0 {
		t.Error("ENOSPC'd fills must degrade to redirects")
	}

	// Disk heals: the same stack serves byte-exactly again.
	faulty.SetConfig(store.FaultConfig{})
	size, _ := catalog.SizeOf(1)
	resp, body := rig.get(t, 1, 0, size-1)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, expected(1, 0, size-1)) {
		t.Errorf("after disk heal: status %d, %d bytes", resp.StatusCode, len(body))
	}
}
