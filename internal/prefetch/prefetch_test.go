package prefetch_test

import (
	"testing"

	"videocdn/internal/cafe"
	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/cost"
	"videocdn/internal/experiments"
	"videocdn/internal/prefetch"
	"videocdn/internal/trace"
	"videocdn/internal/workload"
)

const testK = 1024

func req(t int64, v chunk.VideoID, c0, c1 int) trace.Request {
	return trace.Request{Time: t, Video: v, Start: int64(c0) * testK, End: int64(c1+1)*testK - 1}
}

// sizeMap is a fixed catalog of video sizes.
type sizeMap map[chunk.VideoID]int64

func (m sizeMap) SizeOf(v chunk.VideoID) (int64, bool) {
	size, ok := m[v]
	return size, ok
}

// replay runs the planner on one sim.Replay, as the prefetch figure
// does.
var replay = experiments.ReplayPrefetch

func newCafe(t *testing.T, disk int, alpha float64) *cafe.Cache {
	t.Helper()
	c, err := cafe.New(core.Config{ChunkSize: testK, DiskChunks: disk}, alpha, cafe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	good := prefetch.Config{StartHour: 2, EndHour: 6, ChunksPerHour: 10}
	if err := good.Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
	if err := (prefetch.Config{StartHour: -1, EndHour: 6, ChunksPerHour: 1}).Validate(); err == nil {
		t.Error("negative hour should fail")
	}
	if err := (prefetch.Config{StartHour: 2, EndHour: 25, ChunksPerHour: 1}).Validate(); err == nil {
		t.Error("hour > 23 should fail")
	}
	if err := (prefetch.Config{StartHour: 2, EndHour: 6}).Validate(); err == nil {
		t.Error("zero budget should fail")
	}
}

func TestWindowWrapsMidnight(t *testing.T) {
	c := prefetch.Config{StartHour: 22, EndHour: 4, ChunksPerHour: 1}
	for _, h := range []int{22, 23, 0, 3} {
		if !c.InWindow(h) {
			t.Errorf("hour %d should be in 22-4 window", h)
		}
	}
	for _, h := range []int{4, 12, 21} {
		if c.InWindow(h) {
			t.Errorf("hour %d should be outside 22-4 window", h)
		}
	}
	always := prefetch.Config{StartHour: 5, EndHour: 5, ChunksPerHour: 1}
	for h := 0; h < 24; h++ {
		if !always.InWindow(h) {
			t.Error("equal start/end should mean always-on")
		}
	}
}

func TestCafePrefetchBasics(t *testing.T) {
	c := newCafe(t, 10, 1)
	// Build history for video 1 chunks 0-1.
	c.HandleRequest(req(0, 1, 0, 1))
	c.HandleRequest(req(10, 1, 0, 1))
	// Blind prefetch of an unknown video: nothing to read ahead from.
	if _, considered, _, _ := c.PrefetchNext(9, 10*testK, 10); considered {
		t.Error("a video with nothing cached has no next chunk")
	}
	// Read ahead on a known video: video estimate exists -> accept.
	id, considered, admitted, _ := c.PrefetchNext(1, 10*testK, 11)
	if id != (chunk.ID{Video: 1, Index: 2}) || !considered || !admitted {
		t.Errorf("read-ahead on a known video = %s %v %v, want 1/2 admitted", id, considered, admitted)
	}
	if !c.Contains(chunk.ID{Video: 1, Index: 2}) {
		t.Error("prefetched chunk should be cached")
	}
	// The next step moves past the chunk just filled.
	if id, _, _, _ := c.PrefetchNext(1, 10*testK, 12); id != (chunk.ID{Video: 1, Index: 3}) {
		t.Errorf("second read-ahead considered %s, want 1/3", id)
	}
	// A time before the cache's clock is considered, never admitted,
	// and leaves the cache as it was.
	n := c.Len()
	id, considered, admitted, _ = c.PrefetchNext(1, 10*testK, 5)
	if id != (chunk.ID{Video: 1, Index: 4}) || !considered || admitted || c.Len() != n {
		t.Errorf("read-ahead back in time = %s %v %v, %d cached; want 1/4 considered, not admitted, %d cached",
			id, considered, admitted, c.Len(), n)
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
	// Disk holds 1/0 and 2/0. Reading ahead to 2/1 (hot video
	// estimate) should displace the least popular resident (1/0).
	id, _, ok, evicted := c.PrefetchNext(2, 4*testK, 15)
	if !ok || id != (chunk.ID{Video: 2, Index: 1}) {
		t.Fatalf("hot read-ahead = %s %v; want 2/1 displacing a stale resident", id, ok)
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
	if id, considered, ok, _ := c2.PrefetchNext(2, 4*testK, 22); !considered || ok {
		t.Errorf("read-ahead estimated from the eviction floor itself = %s %v %v, want considered and refused", id, considered, ok)
	}
}

// TestHighestCachedIndex: read-ahead considers the chunk after the
// video's highest cached index, gaps below it notwithstanding.
func TestHighestCachedIndex(t *testing.T) {
	c := newCafe(t, 10, 1)
	if _, considered, _, _ := c.PrefetchNext(1, 10*testK, 0); considered {
		t.Error("a video with nothing cached has no next chunk")
	}
	c.HandleRequest(req(0, 1, 0, 0))
	c.HandleRequest(req(0, 1, 3, 3)) // chunks 0 and 3 cached, 1-2 not
	// A time before the cache's clock leaves the cache as it was.
	id, considered, admitted, _ := c.PrefetchNext(1, 10*testK, -1)
	if id != (chunk.ID{Video: 1, Index: 4}) || !considered || admitted {
		t.Errorf("PrefetchNext = %s %v %v; want chunk 1/4 considered, not admitted", id, considered, admitted)
	}
}

// TestNextChunk: read-ahead considers nothing once the video's last
// chunk is cached, and the next chunk while any byte lies past it.
func TestNextChunk(t *testing.T) {
	c := newCafe(t, 10, 1)
	c.HandleRequest(req(0, 1, 0, 1))
	for _, tc := range []struct {
		size int64
		want bool
	}{
		{testK + 1, false},   // requested past the size: nothing ahead
		{2*testK - 1, false}, // chunk 1 short of full, and last
		{2 * testK, false},   // chunk 1 full, and last
		{2*testK + 1, true},  // one byte of chunk 2
		{1 << 40, true},      // long video
	} {
		// A time before the cache's clock leaves the cache as it was,
		// so every size sees the same chunks cached.
		id, considered, admitted, _ := c.PrefetchNext(1, tc.size, -1)
		if considered != tc.want || considered && id != (chunk.ID{Video: 1, Index: 2}) || admitted {
			t.Errorf("size %d: PrefetchNext = %s %v %v; want chunk 1/2 considered: %v, not admitted",
				tc.size, id, considered, admitted, tc.want)
		}
	}
}

// TestReplayStopsAtLastChunk replays one video requested in full: its
// last chunk is cached from the first request on, so read-ahead has
// nothing to fill and spends no budget. Reading ahead past the end
// would charge a whole chunk of ingress for bytes no one can request.
func TestReplayStopsAtLastChunk(t *testing.T) {
	const size = 2*testK + testK/2 // three chunks, the last one short
	c := newCafe(t, 16, 1)
	var reqs []trace.Request
	for tm := int64(0); tm < 4*3600; tm += 60 {
		reqs = append(reqs, trace.Request{Time: tm, Video: 1, Start: 0, End: size - 1})
	}
	res, err := replay(c, reqs, cost.MustModel(1), prefetch.Config{ChunksPerHour: 10}, sizeMap{1: size})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Attempted != 0 || res.Stats.Accepted != 0 {
		t.Errorf("read ahead past the last chunk: %+v", res.Stats)
	}
	if res.Total.Filled != 3*testK {
		t.Errorf("filled %d bytes, want the video's 3 chunks", res.Total.Filled)
	}
	// A video of unknown size is not read ahead either.
	c = newCafe(t, 16, 1)
	res, err = replay(c, reqs, cost.MustModel(1), prefetch.Config{ChunksPerHour: 10}, sizeMap{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Attempted != 0 {
		t.Errorf("read ahead on a video of unknown size: %+v", res.Stats)
	}
}

// replayEurope replays a small europe workload, whose sessions are
// strongly sequential, through a fresh Cafe with the planner always on.
func replayEurope(t *testing.T) *experiments.PrefetchReplay {
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
	res, err := replay(c, reqs, cost.MustModel(1), prefetch.Config{
		StartHour: 0, EndHour: 0, // always on, to exercise the path
		ChunksPerHour: 50,
	}, g)
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
	if _, err := replay(c, nil, model, prefetch.Config{ChunksPerHour: 1}, sizeMap{}); err == nil {
		t.Error("empty trace should fail")
	}
	if _, err := replay(c, []trace.Request{req(0, 1, 0, 0)}, model, prefetch.Config{}, sizeMap{}); err == nil {
		t.Error("invalid config should fail")
	}
}

// TestReplayNilSizes: without a size catalog the planner cannot bound
// read-ahead, so the replay is refused up front rather than failing
// on the first served video of the off-peak window.
func TestReplayNilSizes(t *testing.T) {
	var reqs []trace.Request
	for tm := int64(0); tm < 3600; tm += 60 {
		reqs = append(reqs, req(tm, 1, 0, 1))
	}
	if _, err := replay(newCafe(t, 16, 1), reqs, cost.MustModel(1), prefetch.Config{ChunksPerHour: 10}, nil); err == nil {
		t.Error("nil size catalog should fail")
	}
}
