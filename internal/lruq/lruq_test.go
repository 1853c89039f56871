package lruq

import (
	"math/rand"
	"reflect"
	"testing"

	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/lru"
	"videocdn/internal/policy"
	"videocdn/internal/trace"
)

const testK = 1024

func req(t int64, v chunk.VideoID, c0, c1 int) trace.Request {
	return trace.Request{Time: t, Video: v, Start: int64(c0) * testK, End: int64(c1+1)*testK - 1}
}

func newCache(t *testing.T, diskChunks, q int) *Cache {
	t.Helper()
	c, err := New(core.Config{ChunkSize: testK, DiskChunks: diskChunks}, q)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// randomTrace generates a seeded request stream over a catalog wide
// enough to force constant eviction.
func randomTrace(seed int64, n, videos, maxChunks int) []trace.Request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]trace.Request, 0, n)
	for i := 0; i < n; i++ {
		c0 := rng.Intn(maxChunks)
		c1 := c0 + rng.Intn(maxChunks-c0)
		reqs = append(reqs, req(int64(i), chunk.VideoID(rng.Intn(videos)), c0, c1))
	}
	return reqs
}

func TestValidation(t *testing.T) {
	if _, err := New(core.Config{}, 1); err == nil {
		t.Error("bad config should fail")
	}
}

func TestDefaultQ(t *testing.T) {
	for _, q := range []int{0, -3} {
		c, err := New(core.Config{ChunkSize: testK, DiskChunks: 4}, q)
		if err != nil {
			t.Fatal(err)
		}
		if c.Q() != DefaultQ {
			t.Errorf("q=%d: Q() = %d, want DefaultQ=%d", q, c.Q(), DefaultQ)
		}
	}
}

func TestName(t *testing.T) {
	if newCache(t, 1, 1).Name() != "lruq" {
		t.Error("bad name")
	}
}

// newLRU builds the registry's "lru", the always-fill baseline.
func newLRU(t *testing.T, diskChunks int) *Cache {
	t.Helper()
	c, err := policy.New("lru", core.Config{ChunkSize: testK, DiskChunks: diskChunks}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c.(*Cache)
}

func TestLRUValidation(t *testing.T) {
	if _, err := policy.New("lru", core.Config{}, nil); err == nil {
		t.Error("bad config should fail")
	}
}

func TestLRUName(t *testing.T) {
	if c := newLRU(t, 1); c.Name() != "lru" || c.Q() != 1 {
		t.Errorf("registry lru = %s with q=%d, want lru with q=1", c.Name(), c.Q())
	}
}

func TestLRUOversizedRedirected(t *testing.T) {
	c := newLRU(t, 2)
	if out := c.HandleRequest(req(0, 1, 0, 4)); out.Decision != core.Redirect {
		t.Error("oversized request must redirect")
	}
}

func TestLRUTimeRegressionPanics(t *testing.T) {
	c := newLRU(t, 2)
	c.HandleRequest(req(5, 1, 0, 0))
	defer func() {
		if recover() == nil {
			t.Error("regression should panic")
		}
	}()
	c.HandleRequest(req(4, 1, 0, 0))
}

// TestAlwaysServes: LRU(1), the always-fill baseline, serves everything
// that fits and never overflows the disk.
func TestAlwaysServes(t *testing.T) {
	c := newCache(t, 4, 1)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		out := c.HandleRequest(req(int64(i), chunk.VideoID(rng.Intn(20)), 0, rng.Intn(3)))
		if out.Decision != core.Serve {
			t.Fatal("LRU must serve everything that fits")
		}
		if c.Len() > 4 {
			t.Fatal("disk overflow")
		}
	}
}

func TestFillsOnlyMisses(t *testing.T) {
	c := newCache(t, 10, 1)
	out := c.HandleRequest(req(0, 1, 0, 2))
	if out.FilledChunks != 3 || out.FilledBytes != 3*testK || out.EvictedChunks != 0 {
		t.Errorf("outcome = %+v", out)
	}
	out = c.HandleRequest(req(1, 1, 1, 3))
	if out.FilledChunks != 1 {
		t.Errorf("partial hit should fill 1, got %+v", out)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newCache(t, 2, 1)
	c.HandleRequest(req(0, 1, 0, 0))
	c.HandleRequest(req(1, 2, 0, 0))
	c.HandleRequest(req(2, 1, 0, 0)) // touch video 1
	out := c.HandleRequest(req(3, 3, 0, 0))
	if out.EvictedChunks != 1 {
		t.Fatalf("outcome = %+v", out)
	}
	if c.Contains(chunk.ID{Video: 2}) {
		t.Error("video 2 (LRU) should have been evicted")
	}
	if !c.Contains(chunk.ID{Video: 1}) || !c.Contains(chunk.ID{Video: 3}) {
		t.Error("videos 1 and 3 should be cached")
	}
}

func TestOversizedRedirected(t *testing.T) {
	c := newCache(t, 2, 4)
	if out := c.HandleRequest(req(0, 1, 0, 4)); out.Decision != core.Redirect {
		t.Error("oversized request must redirect")
	}
}

func TestTimeRegressionPanics(t *testing.T) {
	c := newCache(t, 2, 4)
	c.HandleRequest(req(5, 1, 0, 0))
	defer func() {
		if recover() == nil {
			t.Error("regression should panic")
		}
	}()
	c.HandleRequest(req(4, 1, 0, 0))
}

func TestForget(t *testing.T) {
	c := newCache(t, 4, 4)
	c.HandleRequest(req(0, 1, 0, 1))
	id := chunk.ID{Video: 1, Index: 0}
	c.Forget(id)
	if c.Contains(id) {
		t.Error("forgotten chunk still cached")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
	c.Forget(id) // no-op on absent chunk
}

// TestPromotionCapped verifies the hit path: each hit lifts a chunk
// exactly one level, saturating at q-1.
func TestPromotionCapped(t *testing.T) {
	c := newCache(t, 4, 3)
	id := chunk.ID{Video: 7, Index: 0}
	c.HandleRequest(req(0, 7, 0, 0)) // miss -> level 0
	for i, want := range []int{1, 2, 2, 2} {
		c.HandleRequest(req(int64(i+1), 7, 0, 0))
		if lvl, ok := c.Level(id); !ok || lvl != want {
			t.Fatalf("after hit %d: level = %d,%v, want %d", i+1, lvl, ok, want)
		}
	}
}

// pureLRU is the reference LRU(1) is checked against: chunk-level LRU
// written directly over one recency list, with no levels. Every miss is
// filled, and the least recently used chunks make room.
type pureLRU struct {
	cfg  core.Config
	disk *lru.List
}

func (c *pureLRU) HandleRequest(r trace.Request) core.Outcome {
	c0, c1 := r.ChunkRange(c.cfg.ChunkSize)
	if int(c1-c0)+1 > c.cfg.DiskChunks {
		return core.Outcome{Decision: core.Redirect}
	}
	var missing []chunk.ID
	for ci := c0; ci <= c1; ci++ {
		id := chunk.ID{Video: r.Video, Index: ci}
		if c.disk.Contains(id.Key()) {
			c.disk.Touch(id.Key(), r.Time)
		} else {
			missing = append(missing, id)
		}
	}
	var evicted []chunk.ID
	for i := len(missing) - (c.cfg.DiskChunks - c.disk.Len()); i > 0; i-- {
		key, ok := c.disk.RemoveOldest()
		if !ok {
			break
		}
		evicted = append(evicted, chunk.FromKey(key))
	}
	for _, id := range missing {
		c.disk.Touch(id.Key(), r.Time)
	}
	return core.Outcome{
		Decision:      core.Serve,
		FilledChunks:  len(missing),
		FilledBytes:   int64(len(missing)) * c.cfg.ChunkSize,
		EvictedChunks: len(evicted),
		FilledIDs:     missing,
		EvictedIDs:    evicted,
	}
}

// TestQ1MatchesPureLRU pins the q=1 degeneration: on seeded random
// traces the full per-request Outcome stream — decisions, fill and
// eviction counts, and the exact ID sequences — is identical to an
// independent one-list LRU, so LRU(1), registered as "lru", *is* the
// pure-LRU baseline.
func TestQ1MatchesPureLRU(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		reqs := randomTrace(seed, 4000, 40, 6)
		cfg := core.Config{ChunkSize: testK, DiskChunks: 32}
		q1, err := New(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		ref := &pureLRU{cfg: cfg, disk: lru.New()}
		for i, r := range reqs {
			got, want := q1.HandleRequest(r), ref.HandleRequest(r)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, request %d (%+v):\n  lruq(1) = %+v\n  pureLRU = %+v", seed, i, r, got, want)
			}
		}
		if q1.Len() != ref.disk.Len() {
			t.Fatalf("seed %d: final Len %d != %d", seed, q1.Len(), ref.disk.Len())
		}
	}
}

// TestLargeQScanResistance pins the q→∞ frequency ordering on a
// two-class trace: a small hot set hit many times, then a one-touch
// scan wider than the disk. Plain LRU (q=1) lets the scan flush the
// hot set; with q larger than the hit count the hot chunks sit at a
// high level the scan's level-0 entries can never displace.
func TestLargeQScanResistance(t *testing.T) {
	const (
		disk = 16
		hot  = 8
		hits = 6
	)
	run := func(q int) *Cache {
		c := newCache(t, disk, q)
		tm := int64(0)
		for i := 0; i < hits; i++ {
			for v := 0; v < hot; v++ {
				c.HandleRequest(req(tm, chunk.VideoID(v), 0, 0))
				tm++
			}
		}
		// One-touch scan of 2x the disk in cold videos.
		for v := 1000; v < 1000+2*disk; v++ {
			c.HandleRequest(req(tm, chunk.VideoID(v), 0, 0))
			tm++
		}
		return c
	}

	survived := func(c *Cache) int {
		n := 0
		for v := 0; v < hot; v++ {
			if c.Contains(chunk.ID{Video: chunk.VideoID(v)}) {
				n++
			}
		}
		return n
	}

	if n := survived(run(1)); n != 0 {
		t.Errorf("q=1: %d/%d hot chunks survived the scan; plain LRU should evict all", n, hot)
	}
	big := run(64)
	if n := survived(big); n != hot {
		t.Errorf("q=64: only %d/%d hot chunks survived the scan; frequency ordering should keep all", n, hot)
	}
	// Hit-count levels: round one admits (level 0) and each later
	// round promotes once, so every hot chunk sits at exactly
	// hits-1; every surviving scan chunk stays at level 0.
	for v := 0; v < hot; v++ {
		if lvl, ok := big.Level(chunk.ID{Video: chunk.VideoID(v)}); !ok || lvl != hits-1 {
			t.Errorf("hot video %d: level = %d,%v, want %d (one level per hit)", v, lvl, ok, hits-1)
		}
	}
	for v := 1000; v < 1000+2*disk; v++ {
		if lvl, ok := big.Level(chunk.ID{Video: chunk.VideoID(v)}); ok && lvl != 0 {
			t.Errorf("scan video %d: level = %d, want 0 (one-touch scans never leave L0)", v, lvl)
		}
	}
}

// TestCapacityNeverExceeded replays adversarial traces through a
// spread of q values.
func TestCapacityNeverExceeded(t *testing.T) {
	for _, q := range []int{1, 2, 4, 16} {
		c := newCache(t, 8, q)
		for i, r := range randomTrace(int64(q), 3000, 25, 5) {
			c.HandleRequest(r)
			if c.Len() > 8 {
				t.Fatalf("q=%d: request %d: Len = %d > capacity 8", q, i, c.Len())
			}
		}
	}
}
