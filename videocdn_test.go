package videocdn_test

import (
	"bytes"
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
	type ctor func() (videocdn.Cache, error)
	ctors := map[string]ctor{
		"xlru": func() (videocdn.Cache, error) {
			return videocdn.NewXLRU(videocdn.DefaultChunkSize, 512*mb, 2)
		},
		"cafe": func() (videocdn.Cache, error) {
			return videocdn.NewCafe(videocdn.DefaultChunkSize, 512*mb, 2, videocdn.CafeOptions{})
		},
		"psychic": func() (videocdn.Cache, error) {
			return videocdn.NewPsychic(videocdn.DefaultChunkSize, 512*mb, 2, reqs, videocdn.PsychicOptions{})
		},
		"lru": func() (videocdn.Cache, error) {
			return videocdn.NewAlwaysFillLRU(videocdn.DefaultChunkSize, 512*mb)
		},
	}
	for name, mk := range ctors {
		t.Run(name, func(t *testing.T) {
			c, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			if c.Name() != name {
				t.Errorf("Name = %q, want %q", c.Name(), name)
			}
			res, err := videocdn.Replay(c, reqs, 2, videocdn.ReplayOptions{})
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
	c, err := videocdn.NewXLRU(videocdn.DefaultChunkSize, 512*mb, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := videocdn.Replay(c, smallTrace(t), -1, videocdn.ReplayOptions{}); err == nil {
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
