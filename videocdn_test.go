package videocdn_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	videocdn "videocdn"
)

const mb = int64(1 << 20)

func smallTrace(t *testing.T) []videocdn.Request {
	t.Helper()
	p, err := videocdn.WorkloadProfileByName("europe")
	if err != nil {
		t.Fatal(err)
	}
	p.RequestsPerDay = 500
	p.CatalogSize = 100
	p.NewVideosPerDay = 5
	reqs, err := videocdn.GenerateWorkload(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

func TestFacadeConstructors(t *testing.T) {
	reqs := smallTrace(t)
	opt := videocdn.CacheOptions{DiskBytes: 512 * mb, Alpha: 2}
	ctors := map[string]videocdn.CacheOptions{
		"xlru":    opt,
		"cafe":    opt,
		"psychic": {DiskBytes: 512 * mb, Alpha: 2, Future: reqs},
		"lru":     opt,
	}
	for name, opt := range ctors {
		t.Run(name, func(t *testing.T) {
			c, err := videocdn.NewCache(name, opt)
			if err != nil {
				t.Fatal(err)
			}
			if c.Name() != name {
				t.Errorf("Name = %q, want %q", c.Name(), name)
			}
			res, err := videocdn.Replay(c, videocdn.SliceTrace(reqs), 2, videocdn.ReplayOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Requests != len(reqs) {
				t.Errorf("replayed %d, want %d", res.Requests, len(reqs))
			}
			if e := res.Efficiency(); e < -1 || e > 1 {
				t.Errorf("efficiency %v outside [-1,1]", e)
			}
		})
	}
	for spec, opt := range map[string]videocdn.CacheOptions{
		"nosuch":      opt,
		"cafe:nope=1": opt,
		"psychic":     opt, // offline, but no future trace
	} {
		if _, err := videocdn.NewCache(spec, opt); err == nil {
			t.Errorf("NewCache(%q, %+v) succeeded", spec, opt)
		}
	}
}

func TestFacadeCostModel(t *testing.T) {
	m, err := videocdn.NewCostModel(2)
	if err != nil {
		t.Fatal(err)
	}
	if m.CF <= m.CR {
		t.Error("alpha=2 should make fills costlier than redirects")
	}
	if _, err := videocdn.NewCostModel(0); err == nil {
		t.Error("alpha=0 should fail")
	}
}

func TestFacadeReplayRejectsBadAlpha(t *testing.T) {
	c, err := videocdn.NewCache("xlru", videocdn.CacheOptions{DiskBytes: 512 * mb, Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := videocdn.Replay(c, videocdn.SliceTrace(smallTrace(t)), -1, videocdn.ReplayOptions{}); err == nil {
		t.Error("negative alpha should fail")
	}
}

func TestFacadeTraceRoundTrip(t *testing.T) {
	reqs := smallTrace(t)
	var buf bytes.Buffer
	if err := videocdn.WriteTrace(&buf, reqs); err != nil {
		t.Fatal(err)
	}
	got, err := videocdn.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("round trip length %d != %d", len(got), len(reqs))
	}
	for i := range got {
		if got[i] != reqs[i] {
			t.Fatalf("request %d differs", i)
		}
	}
}

func TestFacadeOptimal(t *testing.T) {
	reqs := []videocdn.Request{
		{Time: 0, Video: 1, Start: 0, End: videocdn.DefaultChunkSize - 1},
		{Time: 10, Video: 1, Start: 0, End: videocdn.DefaultChunkSize - 1},
	}
	res, err := videocdn.SolveOptimalLP(videocdn.OptimalInstance{
		Reqs: reqs, ChunkSize: videocdn.DefaultChunkSize, DiskChunks: 1, Alpha: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Efficiency <= 0 || res.Efficiency > 1 {
		t.Errorf("bound efficiency = %v", res.Efficiency)
	}
}

// TestFacadeEdgeServer stands up an origin and an edge whose cache
// NewCache builds over the CacheConfig it is handed.
func TestFacadeEdgeServer(t *testing.T) {
	origin, err := videocdn.NewOriginServer(videocdn.MapCatalog{1: 3 << 10}, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	o := httptest.NewServer(origin)
	defer o.Close()
	srv, err := videocdn.NewEdgeServer(videocdn.EdgeConfig{
		CacheFactory: func(_ int, cc videocdn.CacheConfig) (videocdn.Cache, error) {
			return videocdn.NewCache("cafe", videocdn.CacheOptions{
				ChunkSize: cc.ChunkSize, DiskBytes: int64(cc.DiskChunks) * cc.ChunkSize, Alpha: 2,
			})
		},
		CacheConfig: videocdn.CacheConfig{DiskChunks: 16},
		Store:       videocdn.NewMemStore(),
		OriginURL:   o.URL,
		RedirectURL: "http://alt.example",
		ChunkSize:   1 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/video?v=1&start=0&end=2047", nil))
	if rec.Code != http.StatusPartialContent || rec.Body.Len() != 2048 {
		t.Errorf("GET = %d with %d bytes, want 206 with 2048", rec.Code, rec.Body.Len())
	}
	if st := srv.SnapshotStats(); st.Algorithm != "cafe" || st.CachedChunks != 2 {
		t.Errorf("stats: algorithm %q, %d chunks cached", st.Algorithm, st.CachedChunks)
	}
}

func TestFacadeStores(t *testing.T) {
	mem := videocdn.NewMemStore()
	id := videocdn.ChunkID{Video: 1, Index: 0}
	if err := mem.Put(id, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if !mem.Has(id) {
		t.Error("mem store lost a chunk")
	}
	fs, err := videocdn.NewFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Put(id, []byte("y")); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Get(id, nil)
	if err != nil || string(got) != "y" {
		t.Errorf("fs get = %q, %v", got, err)
	}
}

func TestWorkloadProfilesExposed(t *testing.T) {
	if len(videocdn.WorkloadProfiles()) != 6 {
		t.Error("expected the six world-region profiles")
	}
	if _, err := videocdn.WorkloadProfileByName("nowhere"); err == nil {
		t.Error("unknown profile should fail")
	}
}
