package prefetch

import (
	"testing"

	"videocdn/internal/cafe"
	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/cost"
	"videocdn/internal/trace"
	"videocdn/internal/workload"
)

const testK = 1024

func req(t int64, v chunk.VideoID, c0, c1 int) trace.Request {
	return trace.Request{Time: t, Video: v, Start: int64(c0) * testK, End: int64(c1+1)*testK - 1}
}

func newCafe(t *testing.T, disk int, alpha float64) *cafe.Cache {
	t.Helper()
	c, err := cafe.New(core.Config{ChunkSize: testK, DiskChunks: disk}, alpha, cafe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	good := Config{StartHour: 2, EndHour: 6, ChunksPerHour: 10}
	if err := good.Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
	if err := (Config{StartHour: -1, EndHour: 6, ChunksPerHour: 1}).Validate(); err == nil {
		t.Error("negative hour should fail")
	}
	if err := (Config{StartHour: 2, EndHour: 25, ChunksPerHour: 1}).Validate(); err == nil {
		t.Error("hour > 23 should fail")
	}
	if err := (Config{StartHour: 2, EndHour: 6}).Validate(); err == nil {
		t.Error("zero budget should fail")
	}
}

func TestWindowWrapsMidnight(t *testing.T) {
	c := Config{StartHour: 22, EndHour: 4, ChunksPerHour: 1}
	for _, h := range []int{22, 23, 0, 3} {
		if !c.inWindow(h) {
			t.Errorf("hour %d should be in 22-4 window", h)
		}
	}
	for _, h := range []int{4, 12, 21} {
		if c.inWindow(h) {
			t.Errorf("hour %d should be outside 22-4 window", h)
		}
	}
	always := Config{StartHour: 5, EndHour: 5, ChunksPerHour: 1}
	for h := 0; h < 24; h++ {
		if !always.inWindow(h) {
			t.Error("equal start/end should mean always-on")
		}
	}
}

func TestCafePrefetchChunkBasics(t *testing.T) {
	c := newCafe(t, 10, 1)
	// Build history for video 1 chunks 0-1.
	c.HandleRequest(req(0, 1, 0, 1))
	c.HandleRequest(req(10, 1, 0, 1))
	// Blind prefetch of an unknown video must be refused.
	if ok, _ := c.PrefetchChunk(chunk.ID{Video: 9, Index: 0}, 10); ok {
		t.Error("prefetch with no information should be refused")
	}
	// Prefetch the next chunk: video estimate exists -> accept.
	if ok, _ := c.PrefetchChunk(chunk.ID{Video: 1, Index: 2}, 11); !ok {
		t.Error("read-ahead on a known video should be accepted")
	}
	if !c.Contains(chunk.ID{Video: 1, Index: 2}) {
		t.Error("prefetched chunk should be cached")
	}
	// Idempotent: already-cached chunk refuses.
	if ok, _ := c.PrefetchChunk(chunk.ID{Video: 1, Index: 2}, 12); ok {
		t.Error("prefetch of a cached chunk should be refused")
	}
}

func TestCafePrefetchRespectsFullDisk(t *testing.T) {
	c := newCafe(t, 2, 1)
	// Video 1 goes stale early; video 2 is requested frequently so its
	// IAT converges well below video 1's.
	c.HandleRequest(req(0, 1, 0, 0))
	c.HandleRequest(req(1, 1, 0, 0))
	for tm := int64(10); tm <= 14; tm++ {
		c.HandleRequest(req(tm, 2, 0, 0))
	}
	// Disk holds 1/0 and 2/0. Prefetching 2/1 (hot video estimate)
	// should displace the least popular resident (1/0).
	ok, evicted := c.PrefetchChunk(chunk.ID{Video: 2, Index: 1}, 15)
	if !ok {
		t.Fatal("hot prefetch should displace a stale resident")
	}
	if len(evicted) != 1 || evicted[0] != (chunk.ID{Video: 1, Index: 0}) {
		t.Errorf("evicted = %v, want exactly the displaced resident 1/0", evicted)
	}
	if c.Len() != 2 {
		t.Errorf("disk overflow: %d", c.Len())
	}
	if c.Contains(chunk.ID{Video: 1, Index: 0}) {
		t.Error("stale resident should have been displaced")
	}
	// A prefetch whose estimate comes from the least popular resident
	// itself can never be strictly better — refused.
	c2 := newCafe(t, 2, 1)
	c2.HandleRequest(req(0, 1, 0, 0))
	c2.HandleRequest(req(10, 1, 0, 0))
	c2.HandleRequest(req(11, 2, 0, 0))
	c2.HandleRequest(req(21, 2, 0, 0)) // video 2 is the least popular resident
	if ok, _ := c2.PrefetchChunk(chunk.ID{Video: 2, Index: 1}, 22); ok {
		t.Error("prefetch estimated from the eviction floor itself should be refused")
	}
}

func TestHighestCachedIndex(t *testing.T) {
	c := newCafe(t, 10, 1)
	if _, ok := c.HighestCachedIndex(1); ok {
		t.Error("empty video should report !ok")
	}
	c.HandleRequest(req(0, 1, 0, 3))
	hi, ok := c.HighestCachedIndex(1)
	if !ok || hi != 3 {
		t.Errorf("HighestCachedIndex = %d,%v", hi, ok)
	}
}

// replayEurope replays a small europe workload, whose sessions are
// strongly sequential, through a fresh Cafe with the planner always on.
func replayEurope(t *testing.T) *Result {
	t.Helper()
	p, err := workload.ProfileByName("europe")
	if err != nil {
		t.Fatal(err)
	}
	p.RequestsPerDay = 1200
	p.CatalogSize = 150
	p.NewVideosPerDay = 5
	g, err := workload.NewGenerator(p)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := g.Generate(4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cafe.New(core.Config{ChunkSize: chunk.DefaultSize, DiskChunks: 512}, 1, cafe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Replay(c, reqs, cost.MustModel(1), Config{
		StartHour: 0, EndHour: 0, // always on, to exercise the path
		ChunksPerHour: 50,
	}, chunk.DefaultSize)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestReplayWithPrefetch(t *testing.T) {
	// Prefetch should land useful chunks.
	res := replayEurope(t)
	if res.Stats.Accepted == 0 {
		t.Error("expected some prefetches to be accepted")
	}
	if res.Stats.Accepted > res.Stats.Attempted {
		t.Error("accepted > attempted")
	}
	if res.Stats.PrefetchedBytes != int64(res.Stats.Accepted)*chunk.DefaultSize {
		t.Error("prefetched bytes accounting wrong")
	}
	if res.Stats.UsefulChunks > res.Stats.Accepted {
		t.Error("useful > accepted")
	}
	if e := res.Efficiency(); e < -1 || e > 1 {
		t.Errorf("efficiency %v out of range", e)
	}
}

// TestReplayRepeats: the planner spends its budget in a fixed order,
// so two replays of one trace prefetch the same chunks.
func TestReplayRepeats(t *testing.T) {
	a, b := replayEurope(t), replayEurope(t)
	if a.Stats != b.Stats || a.Total != b.Total || a.Steady != b.Steady {
		t.Errorf("two replays disagree:\n%+v %+v\n%+v %+v", a.Stats, a.Total, b.Stats, b.Total)
	}
}

func TestReplayValidation(t *testing.T) {
	c := newCafe(t, 4, 1)
	model := cost.MustModel(1)
	if _, err := Replay(c, nil, model, Config{ChunksPerHour: 1}, testK); err == nil {
		t.Error("empty trace should fail")
	}
	if _, err := Replay(c, []trace.Request{req(0, 1, 0, 0)}, model, Config{}, testK); err == nil {
		t.Error("invalid config should fail")
	}
}
