// Package xlru implements the paper's baseline video cache (Section
// 5): two LRU structures — a file-level video popularity tracker and a
// chunk-level disk cache — with an alpha-scaled admission test.
//
// Handling a request R at time t_now (Figure 1):
//
//	t = PopularityTracker.LastAccessTime(R.v)
//	PopularityTracker.Update(R.v, t_now)
//	if t == NULL or (t_now - t) * alpha_F2R > DiskCache.CacheAge():
//	    return REDIRECT                       // Eq. 5
//	fill missing chunks, evicting the oldest  // LRU replacement
//	return SERVE
//
// The popularity of video v is its approximate inter-arrival time
// IAT_v = t_now - t; the least popular content on disk has IAT_0 =
// CacheAge (age of the oldest chunk). A video qualifies for cache fill
// only if it is alpha times more popular than the cache age, which is
// how the single knob alpha_F2R trades ingress for redirections.
//
// Warmup (not shown in the paper's Figure 1): while the disk has free
// space every request is admitted and filled — there is nothing to
// protect yet, and this is what fills the cache in the first place.
package xlru

import (
	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/lru"
	"videocdn/internal/trace"
)

// cleanupInterval controls how often (in requests) expired history is
// purged from the popularity tracker.
const cleanupInterval = 4096

// Cache is the xLRU video cache. Not safe for concurrent use.
type Cache struct {
	cfg   core.Config
	alpha float64

	pop  *lru.List // video ID -> last access time
	disk *lru.List // packed chunk key -> last access time

	lastTime int64
	requests int64

	fillGate func(chunks int, now int64) bool

	// missingBuf and evictedBuf back Outcome.FilledIDs/EvictedIDs until
	// the next request.
	missingBuf []chunk.ID
	evictedBuf []chunk.ID
}

// SetFillGate installs an optional admission throttle consulted before
// any cache fill (see cafe.SetFillGate; the semantics are identical).
// Pass nil to remove the gate.
func (c *Cache) SetFillGate(gate func(chunks int, now int64) bool) { c.fillGate = gate }

// New builds an xLRU cache. alpha is the fill-to-redirect preference
// alpha_F2R (Section 4.1); cfg carries chunk size and disk capacity.
func New(cfg core.Config, alpha float64) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if alpha <= 0 {
		return nil, core.ErrBadAlpha
	}
	return &Cache{
		cfg:   cfg,
		alpha: alpha,
		pop:   lru.New(),
		disk:  lru.New(),
	}, nil
}

// Name implements core.Cache.
func (c *Cache) Name() string { return "xlru" }

// Alpha returns the current alpha_F2R.
func (c *Cache) Alpha() float64 { return c.alpha }

// SetAlpha retunes the fill-to-redirect preference at runtime (see
// Section 10 on small-range dynamic adjustment). Only the Eq. 5
// threshold scaling changes; both LRU structures are alpha-independent.
func (c *Cache) SetAlpha(alpha float64) error {
	if alpha <= 0 {
		return core.ErrBadAlpha
	}
	c.alpha = alpha
	return nil
}

// Len implements core.Cache.
func (c *Cache) Len() int { return c.disk.Len() }

// Contains implements core.Cache.
func (c *Cache) Contains(id chunk.ID) bool { return c.disk.Contains(id.Key()) }

// Forget undoes the admission of one chunk whose cache fill failed
// (the HTTP edge server's degrade-to-redirect path). The popularity
// tracker is left untouched; no-op when the chunk is not on disk.
func (c *Cache) Forget(id chunk.ID) { c.disk.Remove(id.Key()) }

// CacheAge returns the age of the oldest chunk on disk: t_now minus the
// last access time of the LRU tail. Zero while the disk is empty.
func (c *Cache) CacheAge(now int64) int64 {
	oldest, ok := c.disk.OldestTime()
	if !ok {
		return 0
	}
	return now - oldest
}

// HandleRequest implements core.Cache.
func (c *Cache) HandleRequest(r trace.Request) core.Outcome {
	now := r.Time
	if now < c.lastTime {
		panic("xlru: requests must arrive in non-decreasing time order")
	}
	c.lastTime = now
	c.requests++
	if c.requests%cleanupInterval == 0 {
		c.cleanup(now)
	}

	// Popularity test (Figure 1 lines 1-3). Read the previous access
	// time, then record this one.
	prev, seen := c.pop.Time(uint64(r.Video))
	c.pop.Touch(uint64(r.Video), now)

	c0, c1 := r.ChunkRange(c.cfg.ChunkSize)
	nChunks := int(c1-c0) + 1

	// A request wider than the whole disk cannot be held; redirect.
	if nChunks > c.cfg.DiskChunks {
		return core.Outcome{Decision: core.Redirect}
	}

	free := c.cfg.DiskChunks - c.disk.Len()
	warming := free > 0

	if !warming {
		// Eq. 5: redirect unless the video's inter-arrival time,
		// scaled by alpha, beats the cache age.
		if !seen || float64(now-prev)*c.alpha > float64(c.CacheAge(now)) {
			return core.Outcome{Decision: core.Redirect}
		}
	}

	// Serve: find the missing chunks first (the fill gate may veto),
	// then touch cached chunks (LRU access), evict the oldest to make
	// room, and fill.
	missing := c.missingBuf[:0]
	for ci := c0; ci <= c1; ci++ {
		id := chunk.ID{Video: r.Video, Index: ci}
		if !c.disk.Contains(id.Key()) {
			missing = append(missing, id)
		}
	}
	c.missingBuf = missing
	if len(missing) > 0 && c.fillGate != nil && !c.fillGate(len(missing), now) {
		// Disk-write budget exhausted (Section 2): redirect instead of
		// filling; the popularity tracker has already seen the request.
		return core.Outcome{Decision: core.Redirect}
	}
	for ci := c0; ci <= c1; ci++ {
		id := chunk.ID{Video: r.Video, Index: ci}
		if c.disk.Contains(id.Key()) {
			c.disk.Touch(id.Key(), now)
		}
	}
	evict := len(missing) - (c.cfg.DiskChunks - c.disk.Len())
	if evict < 0 {
		evict = 0
	}
	evicted := c.evictedBuf[:0]
	for i := 0; i < evict; i++ {
		// The requested chunks were just touched to the head, so the
		// tail can never be part of this request (nChunks <= disk).
		key, ok := c.disk.RemoveOldest()
		if !ok {
			break
		}
		evicted = append(evicted, chunk.FromKey(key))
	}
	c.evictedBuf = evicted
	for _, id := range missing {
		c.disk.Touch(id.Key(), now)
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

// cleanup discards popularity history too old to ever pass Eq. 5 again:
// entries older than CacheAge/alpha (for alpha >= 1 this is at most the
// cache age; for alpha < 1 history stays useful proportionally longer).
func (c *Cache) cleanup(now int64) {
	age := c.CacheAge(now)
	if age <= 0 {
		return
	}
	horizon := float64(age) / c.alpha
	cutoff := now - int64(horizon) - 1
	c.pop.ExpireOlderThan(cutoff)
}
