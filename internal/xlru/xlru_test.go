package xlru

import (
	"math/rand"
	"testing"

	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/trace"
)

const testK = 1024 // 1 KB chunks keep test arithmetic readable

func newCache(t *testing.T, diskChunks int, alpha float64) *Cache {
	t.Helper()
	c, err := New(core.Config{ChunkSize: testK, DiskChunks: diskChunks}, alpha)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// req builds a request covering chunks [c0, c1] of video v.
func req(t int64, v chunk.VideoID, c0, c1 int) trace.Request {
	return trace.Request{Time: t, Video: v, Start: int64(c0) * testK, End: int64(c1+1)*testK - 1}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(core.Config{ChunkSize: 0, DiskChunks: 10}, 1); err == nil {
		t.Error("zero chunk size should fail")
	}
	if _, err := New(core.Config{ChunkSize: testK, DiskChunks: 0}, 1); err == nil {
		t.Error("zero disk should fail")
	}
	if _, err := New(core.Config{ChunkSize: testK, DiskChunks: 10}, 0); err == nil {
		t.Error("zero alpha should fail")
	}
	if _, err := New(core.Config{ChunkSize: testK, DiskChunks: 10}, -2); err == nil {
		t.Error("negative alpha should fail")
	}
}

func TestWarmupAdmitsEverything(t *testing.T) {
	c := newCache(t, 10, 2)
	out := c.HandleRequest(req(0, 1, 0, 2)) // first-ever request, disk empty
	if out.Decision != core.Serve {
		t.Fatalf("warmup request should be served, got %v", out.Decision)
	}
	if out.FilledChunks != 3 || out.FilledBytes != 3*testK || out.EvictedChunks != 0 {
		t.Errorf("outcome = %+v", out)
	}
	if c.Len() != 3 {
		t.Errorf("Len = %d", c.Len())
	}
	for i := uint32(0); i < 3; i++ {
		if !c.Contains(chunk.ID{Video: 1, Index: i}) {
			t.Errorf("chunk %d missing", i)
		}
	}
}

func fillDisk(t *testing.T, c *Cache, upto int64) {
	t.Helper()
	// Fill the disk with distinct single-chunk videos at times 0..upto.
	v := chunk.VideoID(1000)
	var tm int64
	for c.Len() < c.cfg.DiskChunks {
		out := c.HandleRequest(req(tm, v, 0, 0))
		if out.Decision != core.Serve {
			t.Fatalf("warmup fill redirected at %d", tm)
		}
		v++
		if tm < upto {
			tm++
		}
	}
}

func TestFirstSeenVideoRedirectedWhenFull(t *testing.T) {
	c := newCache(t, 5, 1)
	fillDisk(t, c, 100)
	out := c.HandleRequest(req(200, 1, 0, 0))
	if out.Decision != core.Redirect {
		t.Error("first-seen video on a full disk must be redirected")
	}
	if out.FilledChunks != 0 || out.FilledBytes != 0 {
		t.Errorf("redirect must not fill: %+v", out)
	}
}

func TestSecondRequestAdmitted(t *testing.T) {
	c := newCache(t, 5, 1)
	fillDisk(t, c, 100)
	// Disk filled at times 0..4 < 100; cache age at t=200 is large.
	c.HandleRequest(req(200, 1, 0, 0)) // redirect, records popularity
	out := c.HandleRequest(req(210, 1, 0, 0))
	// IAT = 10, cache age = 210 - oldest(=1 or so) >> 10 -> serve.
	if out.Decision != core.Serve {
		t.Error("popular video should be admitted on second request")
	}
	if out.EvictedChunks != 1 || out.FilledChunks != 1 {
		t.Errorf("outcome = %+v", out)
	}
	if !c.Contains(chunk.ID{Video: 1, Index: 0}) {
		t.Error("admitted chunk should be on disk")
	}
}

// Eq. 5: the admission IAT threshold scales inversely with alpha.
func TestAlphaScalesAdmission(t *testing.T) {
	// Build two identical caches, alpha 1 vs alpha 4, and replay a
	// video whose IAT is just under the cache age: admitted at alpha=1,
	// redirected at alpha=4.
	for _, tc := range []struct {
		alpha float64
		want  core.Decision
	}{
		{1, core.Serve},
		{4, core.Redirect},
	} {
		c := newCache(t, 5, tc.alpha)
		fillDisk(t, c, 0) // all chunks filled at t=0
		// Cache age at t=1000 is 1000. Video 1 seen at t=300 and
		// t=1000: IAT 700. Eq.5: 700*alpha > 1000 ?
		c.HandleRequest(req(300, 1, 0, 0))
		out := c.HandleRequest(req(1000, 1, 0, 0))
		if out.Decision != tc.want {
			t.Errorf("alpha=%v: decision = %v, want %v", tc.alpha, out.Decision, tc.want)
		}
	}
}

func TestAlphaBelowOneAdmitsStaleVideos(t *testing.T) {
	// alpha = 0.5 admits videos with IAT up to 2x the cache age.
	c := newCache(t, 5, 0.5)
	fillDisk(t, c, 0)
	c.HandleRequest(req(300, 1, 0, 0))
	// t=2000: IAT = 1700, cache age = 2000. 1700*0.5 = 850 < 2000 -> serve.
	out := c.HandleRequest(req(2000, 1, 0, 0))
	if out.Decision != core.Serve {
		t.Error("alpha<1 should admit videos with IAT up to age/alpha")
	}
}

func TestEvictionIsLRU(t *testing.T) {
	c := newCache(t, 3, 1)
	// Fill with videos 10, 11, 12 at t = 0,1,2.
	c.HandleRequest(req(0, 10, 0, 0))
	c.HandleRequest(req(1, 11, 0, 0))
	c.HandleRequest(req(2, 12, 0, 0))
	// Touch video 10 (a hit, keeps it recent). Cache full; video 10 was
	// seen at 0, IAT = 3, age = 3-0 = 3... IAT*1 = 3 <= 3 -> serve.
	if out := c.HandleRequest(req(3, 10, 0, 0)); out.Decision != core.Serve {
		t.Fatal("hit on cached video should serve")
	}
	// Admit a new chunk for video 11 (seen at t=1, IAT small enough).
	out := c.HandleRequest(req(4, 11, 1, 1))
	if out.Decision != core.Serve {
		t.Fatal("video 11 should be admitted")
	}
	// LRU order before fill: video11/0 (t=1), video12/0 (t=2), video10/0 (t=3).
	if c.Contains(chunk.ID{Video: 11, Index: 0}) {
		t.Error("LRU tail (video 11 chunk 0) should have been evicted")
	}
	if !c.Contains(chunk.ID{Video: 12, Index: 0}) || !c.Contains(chunk.ID{Video: 10, Index: 0}) {
		t.Error("recent chunks should remain")
	}
	if !c.Contains(chunk.ID{Video: 11, Index: 1}) {
		t.Error("new chunk should be present")
	}
}

func TestServedChunksNotEvictedBySameRequest(t *testing.T) {
	// Disk of 4; video A has chunks 0,1 cached (old). A request for A
	// chunks 0..3 must fill 2 and evict 2, but never evict A's own
	// cached chunks even though they are the oldest.
	c := newCache(t, 4, 1)
	c.HandleRequest(req(0, 1, 0, 1)) // A = video 1, chunks 0,1
	c.HandleRequest(req(1, 2, 0, 1)) // B = video 2, chunks 0,1; disk full
	out := c.HandleRequest(req(2, 1, 0, 3))
	if out.Decision != core.Serve {
		t.Fatal("video 1 should pass the popularity test")
	}
	if out.FilledChunks != 2 || out.EvictedChunks != 2 {
		t.Fatalf("outcome = %+v", out)
	}
	for i := uint32(0); i < 4; i++ {
		if !c.Contains(chunk.ID{Video: 1, Index: i}) {
			t.Errorf("video 1 chunk %d should be cached", i)
		}
	}
	if c.Contains(chunk.ID{Video: 2, Index: 0}) || c.Contains(chunk.ID{Video: 2, Index: 1}) {
		t.Error("video 2 chunks should have been evicted")
	}
}

func TestOversizedRequestRedirected(t *testing.T) {
	c := newCache(t, 3, 1)
	out := c.HandleRequest(req(0, 1, 0, 3)) // 4 chunks > 3-chunk disk
	if out.Decision != core.Redirect {
		t.Error("request wider than the disk must be redirected")
	}
}

func TestDiskNeverExceedsCapacity(t *testing.T) {
	c := newCache(t, 8, 1)
	tm := int64(0)
	for v := chunk.VideoID(1); v <= 40; v++ {
		c.HandleRequest(req(tm, v, 0, 2))
		tm++
		c.HandleRequest(req(tm, v, 0, 2)) // second request to pass the test
		tm++
		if c.Len() > 8 {
			t.Fatalf("disk overflow: %d chunks", c.Len())
		}
	}
}

func TestPartialHitFillsOnlyMissing(t *testing.T) {
	c := newCache(t, 10, 1)
	c.HandleRequest(req(0, 1, 0, 2))
	out := c.HandleRequest(req(5, 1, 1, 4)) // chunks 1,2 cached; 3,4 missing
	if out.Decision != core.Serve {
		t.Fatal("should serve")
	}
	if out.FilledChunks != 2 {
		t.Errorf("FilledChunks = %d, want 2", out.FilledChunks)
	}
}

func TestCacheAge(t *testing.T) {
	c := newCache(t, 10, 1)
	if got := c.CacheAge(100); got != 0 {
		t.Errorf("empty cache age = %d", got)
	}
	c.HandleRequest(req(10, 1, 0, 0))
	c.HandleRequest(req(20, 2, 0, 0))
	if got := c.CacheAge(50); got != 40 {
		t.Errorf("CacheAge = %d, want 40", got)
	}
}

func TestTimeRegressionPanics(t *testing.T) {
	c := newCache(t, 10, 1)
	c.HandleRequest(req(10, 1, 0, 0))
	defer func() {
		if recover() == nil {
			t.Error("time regression should panic")
		}
	}()
	c.HandleRequest(req(5, 2, 0, 0))
}

func TestByteAccounting(t *testing.T) {
	c := newCache(t, 100, 1)
	// Partial-chunk request: bytes [100, 1500] spans chunks 0,1.
	out := c.HandleRequest(trace.Request{Time: 0, Video: 1, Start: 100, End: 1500})
	if out.FilledChunks != 2 {
		t.Fatalf("FilledChunks = %d, want 2", out.FilledChunks)
	}
	if out.FilledBytes != 2*testK {
		t.Errorf("FilledBytes = %d: fills are whole chunks", out.FilledBytes)
	}
}

func TestPopularityTrackedAcrossRedirects(t *testing.T) {
	c := newCache(t, 2, 1)
	fillDisk(t, c, 0)
	// Three requests for video 1; the first two redirect but build
	// popularity history.
	c.HandleRequest(req(1000, 1, 0, 0))
	out := c.HandleRequest(req(1001, 1, 0, 0))
	if out.Decision != core.Serve {
		t.Error("IAT=1 vs large cache age should admit")
	}
}

func TestCleanupDropsStaleHistory(t *testing.T) {
	c := newCache(t, 4, 1)
	fillDisk(t, c, 0)
	c.HandleRequest(req(10, 1, 0, 0)) // video 1 history at t=10
	// Drive enough requests past the cleanup interval; keep the
	// cache age small so the t=10 entry falls out of the horizon.
	tm := int64(100000)
	for i := 0; i < cleanupInterval+10; i++ {
		v := chunk.VideoID(5000 + i%4)
		c.HandleRequest(req(tm, v, 0, 0))
		tm++
	}
	if _, ok := c.pop.Time(1); ok {
		t.Error("stale popularity history should have been cleaned up")
	}
}

func TestName(t *testing.T) {
	c := newCache(t, 1, 1)
	if c.Name() != "xlru" {
		t.Errorf("Name = %q", c.Name())
	}
}

// Interface conformance.
var _ core.Cache = (*Cache)(nil)

// TestReuseOutcomeBuffersEquivalence mirrors the cafe test: the ignored
// core.Config.ReuseOutcomeBuffers changes nothing a replay observes.
func TestReuseOutcomeBuffersEquivalence(t *testing.T) {
	mk := func(reuse bool) *Cache {
		t.Helper()
		c, err := New(core.Config{ChunkSize: testK, DiskChunks: 32, ReuseOutcomeBuffers: reuse}, 2)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	plain, reuse := mk(false), mk(true)
	rng := rand.New(rand.NewSource(9))
	tm := int64(0)
	for i := 0; i < 4000; i++ {
		r := req(tm, chunk.VideoID(rng.Intn(60)), 0, rng.Intn(4))
		tm += int64(rng.Intn(5))
		a, b := plain.HandleRequest(r), reuse.HandleRequest(r)
		if a.Decision != b.Decision || a.FilledChunks != b.FilledChunks ||
			a.FilledBytes != b.FilledBytes || a.EvictedChunks != b.EvictedChunks {
			t.Fatalf("request %d: outcomes diverged:\nplain %+v\nreuse %+v", i, a, b)
		}
		if len(a.FilledIDs) != len(b.FilledIDs) || len(a.EvictedIDs) != len(b.EvictedIDs) {
			t.Fatalf("request %d: ID slice lengths diverged", i)
		}
		for j := range a.FilledIDs {
			if a.FilledIDs[j] != b.FilledIDs[j] {
				t.Fatalf("request %d: FilledIDs[%d] = %v vs %v", i, j, a.FilledIDs[j], b.FilledIDs[j])
			}
		}
		for j := range a.EvictedIDs {
			if a.EvictedIDs[j] != b.EvictedIDs[j] {
				t.Fatalf("request %d: EvictedIDs[%d] = %v vs %v", i, j, a.EvictedIDs[j], b.EvictedIDs[j])
			}
		}
	}
	if plain.Len() != reuse.Len() {
		t.Errorf("Len diverged: %d vs %d", plain.Len(), reuse.Len())
	}
}
