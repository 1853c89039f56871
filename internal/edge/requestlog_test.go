package edge

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/cost"
	"videocdn/internal/policy"
	"videocdn/internal/prefetch"
	"videocdn/internal/resilience"
	"videocdn/internal/sim"
	"videocdn/internal/store"
	"videocdn/internal/trace"
)

// call is one state-changing cache call as a recorder saw it: its kind,
// the record that re-issues it, and what the cache answered.
type call struct {
	kind     trace.Kind
	req      trace.Request
	decision core.Decision
	filled   []chunk.ID // a prefetch's admitted chunk, a forget's chunk
	evicted  []chunk.ID
}

// recorder wraps a cache and records every call that changes its
// state, so two caches' decision streams can be compared call by call.
type recorder struct {
	core.Cache
	mu    sync.Mutex
	calls []call
}

func (r *recorder) add(c call) {
	r.mu.Lock()
	r.calls = append(r.calls, c)
	r.mu.Unlock()
}

func (r *recorder) HandleRequest(req trace.Request) core.Outcome {
	out := r.Cache.HandleRequest(req)
	r.add(call{kind: trace.KindRequest, req: req, decision: out.Decision,
		filled: append([]chunk.ID(nil), out.FilledIDs...), evicted: append([]chunk.ID(nil), out.EvictedIDs...)})
	return out
}

func (r *recorder) Forget(id chunk.ID) {
	if f, ok := r.Cache.(forgetter); ok {
		f.Forget(id)
	}
	r.add(call{kind: trace.KindForget, filled: []chunk.ID{id}})
}

// take returns the calls recorded so far and starts afresh.
func (r *recorder) take() []call {
	r.mu.Lock()
	defer r.mu.Unlock()
	calls := r.calls
	r.calls = nil
	return calls
}

type prefetchRecorder struct {
	*recorder
	p prefetch.Prefetchable
}

func (r prefetchRecorder) PrefetchNext(v chunk.VideoID, size, now int64) (chunk.ID, bool, bool, []chunk.ID) {
	id, considered, admitted, evicted := r.p.PrefetchNext(v, size, now)
	c := call{kind: trace.KindPrefetch, req: trace.Request{Time: now, Video: v, End: size - 1},
		evicted: append([]chunk.ID(nil), evicted...)}
	if admitted {
		c.filled = []chunk.ID{id}
	}
	r.add(c)
	return id, considered, admitted, evicted
}

func (r prefetchRecorder) ChunkSize() int64 { return r.p.ChunkSize() }

// record wraps c in a recorder, keeping its prefetch capability.
func record(c core.Cache) (core.Cache, *recorder) {
	r := &recorder{Cache: c}
	if p, ok := c.(prefetch.Prefetchable); ok {
		return prefetchRecorder{r, p}, r
	}
	return r, r
}

const (
	logK    = 1024
	logDisk = 48
)

// logCatalog is the request-log tests' origin: 40 videos of 3 to 9
// chunks, most with a short tail chunk.
func logCatalog() MapCatalog {
	cat := MapCatalog{}
	for v := 1; v <= 40; v++ {
		cat[chunk.VideoID(v)] = int64(3+v%7)*logK - int64(v%3)*100
	}
	return cat
}

// logFactory builds spec's policy wrapped in a recorder and hands the
// recorder to *rec.
func logFactory(t *testing.T, spec string, rec **recorder) func(int, core.Config) (core.Cache, error) {
	t.Helper()
	f, err := policy.Factory(spec, policy.Env{Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	return func(shard int, cfg core.Config) (core.Cache, error) {
		c, err := f(shard, cfg)
		if err != nil {
			return nil, err
		}
		w, r := record(c)
		*rec = r
		return w, nil
	}
}

func logConfig(factory func(int, core.Config) (core.Cache, error), st store.Store, originURL string, clock func() int64) Config {
	return Config{
		CacheFactory: factory,
		CacheConfig:  core.Config{ChunkSize: logK, DiskChunks: logDisk},
		Store:        st,
		OriginURL:    originURL,
		RedirectURL:  "http://alt.example",
		ChunkSize:    logK,
		Alpha:        2,
		Clock:        clock,
		Retry:        resilience.RetryPolicy{MaxAttempts: 1},
		Breaker:      resilience.BreakerConfig{FailureRate: 1},
	}
}

// serve drives one request through the handler in process.
func serve(s *Server, method, url string) int {
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(method, url, nil))
	return w.Code
}

// logWorkload issues n seeded requests, one in eight a /prefetch, each
// to every server in turn.
func logWorkload(cat MapCatalog, seed int64, n int, tick func(), servers ...*Server) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		v := chunk.VideoID(1 + rng.Intn(8))
		if rng.Intn(3) == 0 {
			v = chunk.VideoID(9 + rng.Intn(len(cat)-8))
		}
		method, url := http.MethodPost, fmt.Sprintf("/prefetch?v=%d&chunks=%d", v, 1+rng.Intn(3))
		if rng.Intn(8) != 0 {
			b0 := rng.Int63n(cat[v])
			b1 := b0 + rng.Int63n(cat[v]-b0)
			method, url = http.MethodGet, fmt.Sprintf("/video?v=%d&start=%d&end=%d", v, b0, b1)
		}
		for _, s := range servers {
			serve(s, method, url)
		}
		if tick != nil {
			tick()
		}
	}
}

// ledger is Eq. 2's counters over a call stream, fills charged at each
// chunk's real length (a tail chunk is short).
func ledger(calls []call, cat MapCatalog) cost.Counters {
	var c cost.Counters
	for _, cl := range calls {
		switch cl.kind {
		case trace.KindRequest:
			c.Requested += cl.req.Bytes()
			if cl.decision == core.Redirect {
				c.Redirected += cl.req.Bytes()
			}
		case trace.KindForget:
			continue
		}
		for _, id := range cl.filled {
			c.Filled += min(logK, cat[id.Video]-int64(id.Index)*logK)
		}
	}
	return c
}

// TestRequestLogIsDecisionStream runs the edge with its request log on
// — seeded serial traffic, then four concurrent clients, with
// /prefetch calls and origin fill failures that roll admissions back —
// and replays the log with sim.Replay into a fresh cache of the same
// spec: the replayed call stream, the chunks it filled and evicted, the
// Eq. 2 ledger and the final residency equal the live cache's.
func TestRequestLogIsDecisionStream(t *testing.T) {
	for _, spec := range []string{"cafe", "xlru", "writelimit:inner=xlru,per_window=4,window=30"} {
		t.Run(spec, func(t *testing.T) {
			cat := logCatalog()
			o, err := NewOrigin(cat, logK)
			if err != nil {
				t.Fatal(err)
			}
			fault := NewFaultOrigin(o, FaultConfig{Seed: 3, TruncateRate: 0.15})
			origin := httptest.NewServer(fault)
			defer origin.Close()

			var now atomic.Int64
			now.Store(1000)
			var live *recorder
			dir := filepath.Join(t.TempDir(), "log")
			s, err := Boot(logConfig(logFactory(t, spec, &live), store.NewMem(), origin.URL, now.Load), dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			logWorkload(cat, 1, 600, func() { now.Add(1) }, s)
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					logWorkload(cat, int64(10+w), 150, func() { now.Add(1) }, s)
				}(w)
			}
			wg.Wait()
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			want := live.take()
			forgets := 0
			for _, c := range want {
				if c.kind == trace.KindForget {
					forgets++
				}
			}
			if forgets == 0 || fault.Counts().Truncations == 0 {
				t.Fatalf("no fill failed (%d truncations, %d forgets): the run checks no rollback", fault.Counts().Truncations, forgets)
			}

			var replayed *recorder
			c, err := logFactory(t, spec, &replayed)(0, core.Config{ChunkSize: logK, DiskChunks: logDisk})
			if err != nil {
				t.Fatal(err)
			}
			d, err := trace.OpenDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Replay(c, d, cost.Model{}, sim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			got := replayed.take()
			if len(got) != len(want) {
				t.Fatalf("replay made %d calls, the edge %d", len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("call %d: replay %+v, edge %+v", i, got[i], want[i])
				}
			}
			if c.Len() != live.Len() {
				t.Fatalf("replayed cache holds %d chunks, the edge's %d", c.Len(), live.Len())
			}
			if g, w := ledger(got, cat), ledger(want, cat); g != w {
				t.Fatalf("ledger: replay %+v, edge %+v", g, w)
			}
			// Every request the edge counted reached the policy: the
			// origin's sizes never failed, only its fills.
			if st := s.SnapshotStats(); st.RequestedBytes != res.Total.Requested {
				t.Fatalf("edge requested %d bytes, the log %d", st.RequestedBytes, res.Total.Requested)
			}
			t.Logf("%d calls, %d forgets, %d chunks filled", len(want), forgets, res.FilledChunks)
		})
	}
}

// onlineSpecs are the online specs the policy conformance suite builds:
// every registered policy that needs no trace, and its configured
// variants.
func onlineSpecs() []string {
	var specs []string
	for _, name := range policy.Names() {
		if spec, _ := policy.Lookup(name); !spec.NeedsTrace {
			specs = append(specs, name)
		}
	}
	return append(specs, "lruq:q=1", "lruq:q=64",
		"admit:inner=cafe,min_hits=2,small_chunks=2",
		"alphactl:inner=cafe,target_ingress=0.05,window=30",
		"writelimit:inner=xlru,per_window=4,window=30")
}

// TestRestartIsExact stops an edge that logs its requests and boots a
// new one over the same log and slab store: for every online spec, the
// restarted edge decides the next 10 000 requests exactly as an edge
// that never stopped, and right after boot the store holds only chunks
// the policy holds.
func TestRestartIsExact(t *testing.T) {
	cat := logCatalog()
	o, err := NewOrigin(cat, logK)
	if err != nil {
		t.Fatal(err)
	}
	origin := httptest.NewServer(o)
	defer origin.Close()
	for _, spec := range onlineSpecs() {
		t.Run(spec, func(t *testing.T) {
			t.Parallel()
			var now atomic.Int64
			now.Store(1000)
			tick := func() { now.Add(1) }
			var ref, first, second *recorder
			never, err := NewServer(logConfig(logFactory(t, spec, &ref), store.NewMem(), origin.URL, now.Load))
			if err != nil {
				t.Fatal(err)
			}
			tmp := t.TempDir()
			logDir, slabDir := filepath.Join(tmp, "log"), filepath.Join(tmp, "slab")
			openSlab := func() *store.Slab {
				st, err := store.NewSlab(slabDir, store.SlabConfig{SlotBytes: logK})
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
			slab := openSlab()
			s, err := Boot(logConfig(logFactory(t, spec, &first), slab, origin.URL, now.Load), logDir, slab.Keys())
			if err != nil {
				t.Fatal(err)
			}
			logWorkload(cat, 1, 2000, tick, never, s)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if err := slab.Close(); err != nil {
				t.Fatal(err)
			}
			slab = openSlab()
			defer slab.Close()
			if s, err = Boot(logConfig(logFactory(t, spec, &second), slab, origin.URL, now.Load), logDir, slab.Keys()); err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if second.Len() != first.Len() {
				t.Fatalf("restarted policy holds %d chunks, before the restart %d", second.Len(), first.Len())
			}
			checkStoreWithinPolicy(t, slab, second)
			second.take()
			ref.take()
			logWorkload(cat, 2, 10_000, tick, never, s)
			got, want := second.take(), ref.take()
			if len(got) != len(want) {
				t.Fatalf("restarted edge made %d calls, the edge that never stopped %d", len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("call %d after the restart: %+v, never stopped: %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// checkStoreWithinPolicy fails unless every chunk st holds is one the
// policy holds, within the disk budget.
func checkStoreWithinPolicy(t *testing.T, st *store.Slab, c core.Cache) {
	t.Helper()
	keys := st.Keys()
	for _, id := range keys {
		if !c.Contains(id) {
			t.Fatalf("store holds %v, which the policy does not", id)
		}
	}
	if len(keys) > logDisk {
		t.Fatalf("store holds %d chunks, over the %d-chunk disk", len(keys), logDisk)
	}
}

// TestBootReconcilesStore boots over a store that disagrees with the
// log: a stray chunk the policy never held and a held chunk the store
// lost. Boot deletes the stray and forgets the lost chunk, and logs the
// Forget.
func TestBootReconcilesStore(t *testing.T) {
	cat := logCatalog()
	o, err := NewOrigin(cat, logK)
	if err != nil {
		t.Fatal(err)
	}
	origin := httptest.NewServer(o)
	defer origin.Close()
	tmp := t.TempDir()
	logDir, slabDir := filepath.Join(tmp, "log"), filepath.Join(tmp, "slab")
	var now atomic.Int64
	now.Store(1000)
	boot := func() (*Server, *store.Slab, *recorder) {
		slab, err := store.NewSlab(slabDir, store.SlabConfig{SlotBytes: logK})
		if err != nil {
			t.Fatal(err)
		}
		var rec *recorder
		s, err := Boot(logConfig(logFactory(t, "xlru", &rec), slab, origin.URL, now.Load), logDir, slab.Keys())
		if err != nil {
			t.Fatal(err)
		}
		return s, slab, rec
	}
	s, slab, _ := boot()
	logWorkload(cat, 1, 300, func() { now.Add(1) }, s)
	s.Close()
	keys := slab.Keys()
	if len(keys) == 0 {
		t.Fatal("the workload stored nothing")
	}
	lost, stray := keys[0], chunk.ID{Video: 999, Index: 2}
	if err := slab.Delete(lost); err != nil {
		t.Fatal(err)
	}
	if err := slab.Put(stray, make([]byte, logK)); err != nil {
		t.Fatal(err)
	}
	slab.Close()

	s, slab, rec := boot()
	if slab.Has(stray) {
		t.Error("boot left a stray chunk in the store")
	}
	if rec.Contains(lost) {
		t.Errorf("boot kept %v, which the store lost, in the policy", lost)
	}
	checkStoreWithinPolicy(t, slab, rec)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	slab.Close()

	d, err := trace.OpenDir(logDir)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := d.Cursor()
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	events := cur.(trace.EventCursor)
	forgot := false
	for {
		var r trace.Request
		ok, err := cur.Next(&r)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		forgot = forgot || events.Kind() == trace.KindForget && r.Video == lost.Video && r.Start == int64(lost.Index)
	}
	if !forgot {
		t.Errorf("the log holds no Forget of %v", lost)
	}
}

// TestBootResumesClock boots twice over one log without a Clock: the
// default clock of the second boot continues from the log's last time,
// so its first request is stamped no earlier than the last one decided.
func TestBootResumesClock(t *testing.T) {
	cat := logCatalog()
	o, err := NewOrigin(cat, logK)
	if err != nil {
		t.Fatal(err)
	}
	origin := httptest.NewServer(o)
	defer origin.Close()
	dir := filepath.Join(t.TempDir(), "log")
	var first, second *recorder
	s, err := Boot(logConfig(logFactory(t, "xlru", &first), store.NewMem(), origin.URL, func() int64 { return 5000 }), dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	serve(s, http.MethodGet, "/video?v=1&start=0&end=99")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Boot(logConfig(logFactory(t, "xlru", &second), store.NewMem(), origin.URL, nil), dir, nil); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	second.take()
	serve(s, http.MethodGet, "/video?v=1&start=0&end=99")
	if calls := second.take(); len(calls) != 1 || calls[0].req.Time < 5000 {
		t.Fatalf("first request after the restart: %+v, want one stamped at 5000 or later", calls)
	}
}

// panicky is a cache whose policy panics on one video.
type panicky struct {
	core.Cache
	video chunk.VideoID
}

func (p panicky) HandleRequest(r trace.Request) core.Outcome {
	if r.Video == p.video {
		panic("policy fault")
	}
	return p.Cache.HandleRequest(r)
}

// TestPolicyPanicReleasesLock: a policy that panics on one request
// must not wedge the edge. net/http recovers the handler's panic; the
// decision lock must be free again for the next request.
func TestPolicyPanicReleasesLock(t *testing.T) {
	c, err := policy.New("xlru", core.Config{ChunkSize: testK, DiskChunks: 16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rig := newRig(t, panicky{Cache: c, video: 13}, MapCatalog{1: 4 * testK, 13: 4 * testK})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the policy's panic did not reach the handler")
			}
		}()
		serve(rig.edge, http.MethodGet, fmt.Sprintf("/video?v=13&start=0&end=%d", testK-1))
	}()
	done := make(chan int, 1)
	go func() { done <- serve(rig.edge, http.MethodGet, fmt.Sprintf("/video?v=1&start=0&end=%d", testK-1)) }()
	select {
	case code := <-done:
		if code != http.StatusOK && code != http.StatusPartialContent {
			t.Fatalf("request after the panic: status %d", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the request after a policy panic got no answer in 5 s: the decision lock is still held")
	}
}
