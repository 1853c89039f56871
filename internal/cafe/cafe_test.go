package cafe

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/trace"
)

const testK = 1024

func newCache(t *testing.T, diskChunks int, alpha float64, opt Options) *Cache {
	t.Helper()
	c, err := New(core.Config{ChunkSize: testK, DiskChunks: diskChunks}, alpha, opt)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func req(t int64, v chunk.VideoID, c0, c1 int) trace.Request {
	return trace.Request{Time: t, Video: v, Start: int64(c0) * testK, End: int64(c1+1)*testK - 1}
}

func TestNewValidation(t *testing.T) {
	cfg := core.Config{ChunkSize: testK, DiskChunks: 4}
	if _, err := New(core.Config{}, 1, Options{}); err == nil {
		t.Error("empty config should fail")
	}
	if _, err := New(cfg, 0, Options{}); err == nil {
		t.Error("alpha=0 should fail")
	}
	if _, err := New(cfg, 1, Options{Gamma: 2}); err == nil {
		t.Error("gamma>1 should fail")
	}
	if _, err := New(cfg, 1, Options{Gamma: -0.5}); err == nil {
		t.Error("gamma<0 should fail")
	}
	if _, err := New(cfg, 1, Options{WindowScale: -1}); err == nil {
		t.Error("negative window scale should fail")
	}
	c, err := New(cfg, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.opt.Gamma != DefaultGamma || c.opt.WindowScale != 1 {
		t.Errorf("defaults not applied: %+v", c.opt)
	}
}

func TestWarmupFills(t *testing.T) {
	c := newCache(t, 10, 2, Options{})
	out := c.HandleRequest(req(0, 1, 0, 3))
	if out.Decision != core.Serve || out.FilledChunks != 4 || out.EvictedChunks != 0 {
		t.Fatalf("warmup outcome = %+v", out)
	}
	if c.Len() != 4 {
		t.Errorf("Len = %d", c.Len())
	}
}

// fillDisk populates the cache with single-chunk videos, each requested
// twice so they have concrete IATs (period = gap).
func fillDisk(t *testing.T, c *Cache, start int64, gap int64) int64 {
	t.Helper()
	tm := start
	v := chunk.VideoID(100000)
	for c.Len() < c.cfg.DiskChunks {
		c.HandleRequest(req(tm, v, 0, 0))
		c.HandleRequest(req(tm+gap, v, 0, 0))
		tm += gap + 1
		v++
	}
	return tm
}

func TestNeverSeenVideoRedirectedWhenFull(t *testing.T) {
	for _, alpha := range []float64{0.5, 1, 2, 4} {
		c := newCache(t, 8, alpha, Options{})
		tm := fillDisk(t, c, 0, 10)
		out := c.HandleRequest(req(tm+100, 7, 0, 0))
		if out.Decision != core.Redirect {
			t.Errorf("alpha=%v: never-seen video should be redirected (Section 9.2)", alpha)
		}
	}
}

func TestPopularVideoAdmitted(t *testing.T) {
	c := newCache(t, 8, 2, Options{})
	tm := fillDisk(t, c, 0, 1000) // residents have IAT ~1000
	// Video 7 requested with a short period: far more popular than
	// the residents. The first sighting redirects; the second has a
	// bootstrapped IAT of 10s and must be admitted.
	first := c.HandleRequest(req(tm+10, 7, 0, 0))
	if first.Decision != core.Redirect {
		t.Fatal("first sighting should redirect")
	}
	out := c.HandleRequest(req(tm+20, 7, 0, 0))
	if out.Decision != core.Serve {
		t.Fatal("popular new video should displace stale residents")
	}
	if out.FilledChunks != 1 || out.EvictedChunks != 1 {
		t.Errorf("outcome = %+v", out)
	}
	if !c.Contains(chunk.ID{Video: 7, Index: 0}) {
		t.Error("admitted chunk missing from disk")
	}
}

func TestUnpopularVideoRedirectedWhenIngressCostly(t *testing.T) {
	// Residents have IAT ~10; a new video with IAT ~5000 must not
	// displace them at alpha=2.
	c := newCache(t, 8, 2, Options{})
	tm := fillDisk(t, c, 0, 10)
	// Keep residents fresh while the candidate builds sparse history.
	refresh := func(at int64) {
		v := chunk.VideoID(100000)
		for i := 0; i < c.cfg.DiskChunks; i++ {
			c.HandleRequest(req(at, v, 0, 0))
			v++
		}
	}
	refresh(tm + 1)
	c.HandleRequest(req(tm+10, 7, 0, 0))
	refresh(tm + 4000)
	out := c.HandleRequest(req(tm+5010, 7, 0, 0))
	if out.Decision != core.Redirect {
		t.Error("unpopular video should be redirected at alpha=2")
	}
}

func TestFullHitServesWithoutFill(t *testing.T) {
	c := newCache(t, 10, 2, Options{})
	c.HandleRequest(req(0, 1, 0, 3))
	out := c.HandleRequest(req(10, 1, 0, 3))
	if out.Decision != core.Serve || out.FilledChunks != 0 || out.EvictedChunks != 0 {
		t.Errorf("full hit outcome = %+v", out)
	}
}

func TestOversizedRequestRedirected(t *testing.T) {
	c := newCache(t, 3, 1, Options{})
	out := c.HandleRequest(req(0, 1, 0, 3))
	if out.Decision != core.Redirect {
		t.Error("request wider than disk must be redirected")
	}
}

func TestDiskNeverExceedsCapacity(t *testing.T) {
	c := newCache(t, 8, 1, Options{})
	rng := rand.New(rand.NewSource(42))
	tm := int64(0)
	for i := 0; i < 3000; i++ {
		v := chunk.VideoID(rng.Intn(50))
		c0 := rng.Intn(4)
		c1 := c0 + rng.Intn(4)
		c.HandleRequest(req(tm, v, c0, c1))
		tm += int64(rng.Intn(5))
		if c.Len() > 8 {
			t.Fatalf("disk overflow at request %d: %d chunks", i, c.Len())
		}
	}
}

func TestRequestedChunksNeverEvicted(t *testing.T) {
	// Video 1 has chunks 0,1 cached and is popular; requesting 0..3
	// must evict other content, not chunks 0,1.
	c := newCache(t, 4, 1, Options{})
	c.HandleRequest(req(0, 1, 0, 1))
	c.HandleRequest(req(5, 2, 0, 1)) // disk now full
	c.HandleRequest(req(10, 1, 0, 1))
	c.HandleRequest(req(20, 1, 0, 1)) // video 1 popular
	out := c.HandleRequest(req(30, 1, 0, 3))
	if out.Decision != core.Serve {
		t.Fatal("expanding a popular video should serve")
	}
	for i := uint32(0); i < 4; i++ {
		if !c.Contains(chunk.ID{Video: 1, Index: i}) {
			t.Errorf("video 1 chunk %d should be cached", i)
		}
	}
	if c.Contains(chunk.ID{Video: 2, Index: 0}) || c.Contains(chunk.ID{Video: 2, Index: 1}) {
		t.Error("video 2 should have been evicted")
	}
}

// Theorem 1 property: the stored tree key preserves IAT order at any
// future evaluation time. For random chunk states (t_x, dt_x) and any
// probe time t >= max(t_x), key order must equal IAT order (inverted:
// smaller key <=> larger IAT).
func TestTheorem1Property(t *testing.T) {
	c := newCache(t, 4, 1, Options{})
	f := func(tx1, tx2 uint16, dt1, dt2 uint16, probe uint16) bool {
		e1 := iatEntry{dt: float64(dt1) + 1, t: int64(tx1)}
		e2 := iatEntry{dt: float64(dt2) + 1, t: int64(tx2)}
		now := int64(tx1) + int64(tx2) + int64(probe) // >= both t_x
		k1, k2 := c.treeKey(e1), c.treeKey(e2)
		i1, i2 := c.iatAt(e1, now), c.iatAt(e2, now)
		if k1 == k2 {
			return math.Abs(i1-i2) < 1e-9
		}
		return (k1 < k2) == (i1 > i2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The identity t - key_x(t) = IAT_x(t) behind the cache-age choice.
func TestVirtualAgeIdentity(t *testing.T) {
	c := newCache(t, 4, 1, Options{})
	e := iatEntry{dt: 120, t: 1000}
	now := int64(1500)
	g := c.opt.Gamma
	paperKey := (1-g)*float64(now) + c.treeKey(e) // key_x(now)
	if got := float64(now) - paperKey; math.Abs(got-c.iatAt(e, now)) > 1e-9 {
		t.Errorf("t - key_x(t) = %v, IAT = %v", got, c.iatAt(e, now))
	}
}

func TestEWMAUpdate(t *testing.T) {
	c := newCache(t, 100, 1, Options{Gamma: 0.25})
	c.HandleRequest(req(0, 1, 0, 0))
	// First observation: dt unknown.
	if e, _ := c.history(chunk.ID{Video: 1}); e.dt == unknownDT {
		// During the fill the dt was assigned (elapsed ~ 0 -> 1).
		t.Errorf("filled chunk should have a concrete dt, got %v", e.dt)
	}
	c2 := newCache(t, 100, 1, Options{Gamma: 0.25})
	// Track without filling: request too large for disk -> observe only.
	big := trace.Request{Time: 0, Video: 1, Start: 0, End: 1000 * testK}
	c2.HandleRequest(big)
	e, _ := c2.history(chunk.ID{Video: 1})
	if e.dt != unknownDT || e.t != 0 {
		t.Fatalf("first sight should record unknown dt, got %+v", e)
	}
	big.Time = 100
	c2.HandleRequest(big)
	e, _ = c2.history(chunk.ID{Video: 1})
	if e.dt != 100 || e.t != 100 {
		t.Fatalf("second sight should bootstrap dt=gap, got %+v", e)
	}
	big.Time = 300
	c2.HandleRequest(big)
	e, _ = c2.history(chunk.ID{Video: 1})
	want := 0.25*200 + 0.75*100 // Eq. 8
	if math.Abs(e.dt-want) > 1e-9 {
		t.Fatalf("EWMA dt = %v, want %v", e.dt, want)
	}
}

func TestUnseenChunkInheritsVideoIAT(t *testing.T) {
	c := newCache(t, 100, 1, Options{})
	c.HandleRequest(req(0, 1, 0, 1))
	c.HandleRequest(req(50, 1, 0, 1))
	est, ok := c.videoEstimate(c.videos[1], 50)
	if !ok {
		t.Fatal("video with cached chunks should yield an estimate")
	}
	// Fill at t=0 assigned dt=1 (elapsed clamp); the t=50 request
	// EWMA-updated it: dt = g*50 + (1-g)*1, and at now=50 the IAT is
	// (1-g)*dt since t_x = now.
	g := c.opt.Gamma
	want := (1 - g) * (g*50 + (1-g)*1)
	if math.Abs(est-want) > 1e-9 {
		t.Errorf("estimate = %v, want %v", est, want)
	}
	c.HandleRequest(trace.Request{Time: 50, Video: 999, Start: 0, End: 1000 * testK}) // wider than the disk: history only
	if _, ok := c.videoEstimate(c.videos[999], 50); ok {
		t.Error("a video with no cached chunk should yield no estimate")
	}
	c.opt.NoVideoEstimate = true
	if _, ok := c.videoEstimate(c.videos[1], 50); ok {
		t.Error("ablation switch should disable the estimate")
	}
}

// The video estimate makes Cafe admit unseen chunks of a cached,
// popular video — the scenario that motivates the estimator.
func TestUnseenChunksOfPopularVideoAdmitted(t *testing.T) {
	c := newCache(t, 8, 2, Options{})
	tm := fillDisk(t, c, 0, 5000) // stale residents
	// Video 7's chunk 0 is hot.
	for i := int64(0); i < 5; i++ {
		c.HandleRequest(req(tm+10*i, 7, 0, 0))
	}
	// First-ever request spanning unseen chunks 1..2 of video 7.
	out := c.HandleRequest(req(tm+60, 7, 1, 2))
	if out.Decision != core.Serve {
		t.Error("unseen chunks of a hot, partially cached video should be admitted")
	}
}

func TestCacheAgeEmptyAndFull(t *testing.T) {
	c := newCache(t, 4, 1, Options{})
	if got := c.CacheAge(100); got != 0 {
		t.Errorf("empty cache age = %v", got)
	}
	fillDisk(t, c, 0, 10)
	if got := c.CacheAge(1000); got <= 0 {
		t.Errorf("cache age should be positive, got %v", got)
	}
}

func TestTimeRegressionPanics(t *testing.T) {
	c := newCache(t, 4, 1, Options{})
	c.HandleRequest(req(10, 1, 0, 0))
	defer func() {
		if recover() == nil {
			t.Error("time regression should panic")
		}
	}()
	c.HandleRequest(req(9, 1, 0, 0))
}

func TestRedirectUpdatesPopularity(t *testing.T) {
	// A video redirected repeatedly builds IAT history and eventually
	// qualifies — the second-chance behaviour.
	c := newCache(t, 8, 2, Options{})
	tm := fillDisk(t, c, 0, 2000)
	first := c.HandleRequest(req(tm+10, 7, 0, 0))
	if first.Decision != core.Redirect {
		t.Fatal("first sighting should redirect")
	}
	second := c.HandleRequest(req(tm+20, 7, 0, 0))
	if second.Decision != core.Serve {
		t.Error("rapid second request should be admitted once history exists")
	}
}

func TestFileLevelAblation(t *testing.T) {
	c := newCache(t, 16, 2, Options{FileLevel: true})
	tm := int64(0)
	// All chunks of video 1 share popularity; requesting chunk 0
	// repeatedly makes chunk 5 look equally popular.
	c.HandleRequest(req(tm, 1, 0, 0))
	c.HandleRequest(req(tm+10, 1, 0, 0))
	c.HandleRequest(req(tm+20, 1, 5, 5))
	if !c.Contains(chunk.ID{Video: 1, Index: 5}) {
		t.Error("file-level cache should have admitted chunk 5")
	}
	e, _ := c.history(chunk.ID{Video: 1, Index: 5})
	e2, _ := c.history(chunk.ID{Video: 1, Index: 0})
	if e != e2 {
		t.Error("file-level entries should be shared")
	}
	if c.Len() != 2 {
		t.Errorf("disk should hold 2 chunks, got %d", c.Len())
	}
}

func TestCleanupPrunesStaleHistory(t *testing.T) {
	c := newCache(t, 4, 1, Options{})
	fillDisk(t, c, 0, 2)
	c.HandleRequest(req(100, 7, 0, 0)) // history for uncached video 7
	if _, ok := c.history(chunk.ID{Video: 7}); !ok {
		t.Fatal("history should exist before cleanup")
	}
	// Run enough far-future requests to trigger cleanup with a small
	// cache age.
	tm := int64(1 << 30)
	for i := 0; i < cleanupInterval+1; i++ {
		v := chunk.VideoID(200 + i%4)
		c.HandleRequest(req(tm, v, 0, 0))
		tm += 2
	}
	if _, ok := c.history(chunk.ID{Video: 7}); ok || c.videos[7] != nil {
		t.Error("stale uncached history should be pruned, and the video's record with it")
	}
	// Cached chunks' entries must survive cleanup.
	h, ok := c.tree.Min()
	if !ok {
		t.Fatal("disk should not be empty")
	}
	if _, ok := c.history(chunk.FromKey(c.tree.ID(h))); !ok {
		t.Error("cached chunk lost its IAT state")
	}
}

// Serving must be chosen iff strictly cheaper: equal costs redirect.
// Construct an exact tie: never-seen single chunk, victim with
// IAT exactly equal to window, alpha=1.
func TestTieBreaksToRedirect(t *testing.T) {
	c := newCache(t, 1, 1, Options{})
	c.HandleRequest(req(0, 1, 0, 0))
	c.HandleRequest(req(100, 1, 0, 0))
	// Disk full with video 1 (IAT known). A never-seen video 2:
	// costServe = CF + (T/IAT_victim)*1, costRedirect = CR + 0.
	// The victim is the min element so T/IAT_victim = 1 exactly.
	// costServe = 1 + 1 = 2 > costRedirect = 1 -> redirect.
	out := c.HandleRequest(req(200, 2, 0, 0))
	if out.Decision != core.Redirect {
		t.Error("never-seen video must lose the cost comparison")
	}
}

func TestAlphaMonotonicity(t *testing.T) {
	// Higher alpha must never increase ingress on an identical
	// workload.
	run := func(alpha float64) int64 {
		c := newCache(t, 32, alpha, Options{})
		rng := rand.New(rand.NewSource(7))
		var filled int64
		tm := int64(0)
		for i := 0; i < 4000; i++ {
			v := chunk.VideoID(zipfIsh(rng, 200))
			c0 := 0
			c1 := rng.Intn(3)
			out := c.HandleRequest(req(tm, v, c0, c1))
			filled += int64(out.FilledChunks)
			tm += int64(rng.Intn(20))
		}
		return filled
	}
	f1, f2, f4 := run(1), run(2), run(4)
	if !(f1 >= f2 && f2 >= f4) {
		t.Errorf("ingress should fall with alpha: %d, %d, %d", f1, f2, f4)
	}
}

// zipfIsh draws a crude Zipf-like rank in [0, n).
func zipfIsh(rng *rand.Rand, n int) int {
	r := rng.Float64()
	return int(float64(n) * r * r * r)
}

func TestName(t *testing.T) {
	c := newCache(t, 1, 1, Options{})
	if c.Name() != "cafe" {
		t.Errorf("Name = %q", c.Name())
	}
}

var _ core.Cache = (*Cache)(nil)

// TestReuseOutcomeBuffersEquivalence: core.Config.ReuseOutcomeBuffers
// is ignored — decisions, counts and the IDs themselves (read before
// the next request) match a cache built without it exactly.
func TestReuseOutcomeBuffersEquivalence(t *testing.T) {
	mk := func(reuse bool) *Cache {
		t.Helper()
		c, err := New(core.Config{ChunkSize: testK, DiskChunks: 32, ReuseOutcomeBuffers: reuse}, 2, Options{})
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

// A request wider than the disk is redirected unseen by the disk, but
// it is still an observation: the cached chunks it covers must move in
// the ordered set with their popularity state, or eviction order, the
// cache age and a Save/Load round trip (which recomputes keys) stop
// agreeing with each other.
func TestOversizedRequestRekeysCachedChunks(t *testing.T) {
	for _, opt := range []Options{{}, {FileLevel: true}} {
		c := newCache(t, 4, 2, opt)
		c.HandleRequest(req(0, 2, 0, 1))
		c.HandleRequest(req(10, 1, 0, 1))
		minBefore := leastPopular(c)
		// Video 1 holds the least popular chunks until the wide request
		// makes them the most recently seen ones.
		if out := c.HandleRequest(req(50, 1, 0, 9)); out.Decision != core.Redirect {
			t.Fatalf("%+v: request wider than the disk was served", opt)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Errorf("%+v: %v", opt, err)
		}
		minAfter := leastPopular(c)
		if minBefore.Video != 1 || minAfter.Video != 2 {
			t.Errorf("%+v: least popular chunk was %s, is %s; want video 1 then video 2",
				opt, minBefore, minAfter)
		}
	}
}

// leastPopular returns the first chunk of the ordered set.
func leastPopular(c *Cache) chunk.ID {
	h, _ := c.tree.Min()
	return chunk.FromKey(c.tree.ID(h))
}

// Every mix of paths, wide requests and prefetches included, keeps the
// bookkeeping coherent after every step.
func TestInvariantsHoldOnRandomTraces(t *testing.T) {
	for _, opt := range []Options{{}, {FileLevel: true}, {NoVideoEstimate: true}} {
		c := newCache(t, 16, 1, opt)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 3000; i++ {
			v, c0 := chunk.VideoID(rng.Intn(40)), rng.Intn(6)
			switch rng.Intn(20) {
			case 0:
				c.HandleRequest(req(int64(i/2), v, c0, c0+20))
			case 1:
				c.PrefetchNext(v, int64(c0+1)*4*testK, int64(i/2))
			case 2:
				c.Forget(chunk.ID{Video: v, Index: uint32(c0)})
			default:
				c.HandleRequest(req(int64(i/2), v, c0, c0+rng.Intn(4)))
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("%+v, step %d: %v", opt, i, err)
			}
			checkCounters(t, c)
		}
	}
}

// checkCounters recounts what the per-video and cache-wide counters
// claim to count.
func checkCounters(t *testing.T, c *Cache) {
	t.Helper()
	cached, tracked := 0, 0
	for id, v := range c.videos {
		n := 0
		for _, st := range v.chunks {
			if st.seen {
				tracked++
			}
			if st.h != 0 {
				n++
			}
		}
		if n != v.cached {
			t.Fatalf("video %d counts %d cached chunks, has %d", id, v.cached, n)
		}
		cached += n
	}
	if cached != c.tree.Len() || tracked != c.tracked {
		t.Fatalf("%d cached chunks for a set of %d, %d tracked states counted as %d", cached, c.tree.Len(), tracked, c.tracked)
	}
}

// The three links between a cached chunk's state, its item in the
// ordered set and the owner table are each checked: damage to any one is
// reported, not acted on by the next eviction.
func TestCheckInvariantsCatchesHandleDamage(t *testing.T) {
	warmed := func() *Cache {
		c := newCache(t, 8, 1, Options{})
		for v := 0; v < 4; v++ {
			c.HandleRequest(req(int64(v), chunk.VideoID(v), 0, 1))
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, tc := range []struct {
		name   string
		damage func(c *Cache)
	}{
		{"cleanup drops a record that still owns handles", func(c *Cache) { delete(c.videos, 2) }},
		{"the record is replaced, the table names the old one", func(c *Cache) { cp := *c.videos[2]; c.videos[2] = &cp }},
		{"Load forgets the owner table", func(c *Cache) { c.owner = nil }},
		{"an eviction leaves the owner of another chunk cleared", func(c *Cache) { c.owner[c.videos[1].chunks[0].h] = nil }},
		{"two states swap handles", func(c *Cache) {
			a, b := &c.videos[0].chunks[0], &c.videos[3].chunks[1]
			a.h, b.h = b.h, a.h
		}},
		{"a state keeps the handle of an evicted chunk", func(c *Cache) { c.tree.Remove(c.videos[3].chunks[0].h) }},
		{"a chunk is in the set under a stale key", func(c *Cache) { c.videos[1].chunks[1].t += 5 }},
	} {
		c := warmed()
		tc.damage(c)
		if err := c.CheckInvariants(); err == nil {
			t.Errorf("%s: CheckInvariants reports nothing", tc.name)
		}
	}
}

// TestCafeSteadyStateZeroAllocs pins the request path of a warmed, full
// cache at zero allocations: full hits, fills that evict (victims
// costed as they are popped off the set; the owner table grows during
// warm-up only), and redirects settled before any victim is popped.
func TestCafeSteadyStateZeroAllocs(t *testing.T) {
	// 32 four-chunk videos asked for round-robin over a 64-chunk disk:
	// each request finds its video evicted since its last turn, and at
	// alpha 0.25 (fills cheap) is worth filling again.
	c, err := New(core.Config{ChunkSize: testK, DiskChunks: 64}, 0.25, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tm, turn := int64(0), 0
	fills, hits := 0, 0
	step := func() {
		tm += 3
		v := chunk.VideoID(turn % 32)
		turn++
		if out := c.HandleRequest(req(tm, v, 0, 3)); out.Decision == core.Serve && out.EvictedChunks == 4 {
			fills++
		}
		if out := c.HandleRequest(req(tm+1, v, 1, 2)); out.Decision == core.Serve && out.FilledChunks == 0 {
			hits++
		}
	}
	for i := 0; i < 3*cleanupInterval; i++ {
		step()
	}
	fills, hits = 0, 0
	const runs = 500
	if allocs := testing.AllocsPerRun(runs, step); allocs != 0 {
		t.Errorf("steady-state request path allocates %v per evict-fill + hit pair, want 0", allocs)
	}
	if fills < runs || hits < runs {
		t.Errorf("the measured window held %d evicting fills and %d hits in %d runs; it must exercise both every run", fills, hits, runs)
	}

	// With fills made dear, the same round-robin hits the videos on disk
	// and redirects the others: filling them costs more than redirecting
	// whatever would be evicted, so no victim is ever taken off the set.
	if err := c.SetAlpha(4); err != nil {
		t.Fatal(err)
	}
	unpopped, victims := 0, 0
	redirect := func() {
		for served := true; served; turn++ {
			tm += 3
			served = c.HandleRequest(req(tm, chunk.VideoID(turn%32), 0, 3)).Decision == core.Serve
			victims += len(c.popped)
		}
		unpopped++
	}
	if allocs := testing.AllocsPerRun(runs, redirect); allocs != 0 {
		t.Errorf("a redirect settled before the first pop allocates %v, want 0", allocs)
	}
	if unpopped < runs || victims != 0 {
		t.Errorf("%d redirects in %d runs, %d victims popped; want a redirect per run and no pop", unpopped, runs, victims)
	}
}

// TestVictimBoundLeavesRoundingMargin: a victim's computed IAT can come
// out above the cache age by the rounding of treeKey and iatAt, and its
// Eq. 6 term then below the term at the age. So a redirect cost equal
// to the fills plus n terms at the age is a tie the bound must leave to
// the pops, at any clock; one clearly below that it settles.
func TestVictimBoundLeavesRoundingMargin(t *testing.T) {
	c := newCache(t, 8, 2, Options{})
	for _, tc := range []struct {
		first, now int64
		age        float64
	}{{0, 5000, 1000}, {1_700_000_000, 1_700_086_400, 3600}, {1_700_000_000, 1_702_592_000, 86400}} {
		c.firstTime = tc.first
		window := tc.age * c.opt.WindowScale
		term := window / math.Max(tc.age, 1) * c.minFR
		costServe := 2 * c.cf
		for n := 1; n <= 3; n++ {
			tie := costServe
			for i := 0; i < n; i++ {
				tie += term
			}
			if c.victimBound(costServe, tie, n, tc.age, window, tc.now) {
				t.Errorf("clock %d, age %v, %d victims: the bound settles a tie at the age", tc.now, tc.age, n)
			}
			if clear := tie - term/2; !c.victimBound(costServe, clear, n, tc.age, window, tc.now) {
				t.Errorf("clock %d, age %v, %d victims: the bound leaves %v to the pops, half a term below the tie", tc.now, tc.age, n, clear)
			}
		}
	}
}
