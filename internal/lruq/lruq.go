// Package lruq implements the generalized LRU(q) replacement family
// (in the spirit of arXiv 1806.10853's LRU generalizations for video
// streaming): the cache is organized as q stacked recency lists
// L_0 … L_{q-1}; a miss inserts the chunk at the MRU end of L_0, a hit
// promotes it one level (to the MRU end of L_{min(i+1, q-1)}), and
// eviction always takes the LRU end of the lowest non-empty level.
//
// The parameter q interpolates between the two classic extremes:
//
//   - q = 1 is exactly chunk-level LRU, eviction sequence and all (a
//     property test pins this against an independent LRU). Registered
//     as "lru", it is the always-fill proxy cache the paper calls the
//     standard solution (Section 2): the strawman baseline that shows
//     what xLRU's popularity gate and Cafe's cost model buy.
//   - q → ∞ orders eviction by hit count: a chunk's level is the
//     number of hits it has received since admission, so the eviction
//     order converges to LFU-like frequency ordering while staying
//     O(1) per operation and scan-resistant (one-touch scans never
//     leave L_0).
//
// Like gdsp and lruk it is an always-fill policy: it serves every
// request that fits on disk and never redirects, isolating the value
// of replacement from the paper's fill-or-redirect admission decision.
// Chunk-granular like xLRU: all state is per chunk, never per file.
package lruq

import (
	"fmt"

	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/lru"
	"videocdn/internal/trace"
)

// DefaultQ is the default level count: enough levels that repeatedly
// hit chunks separate cleanly from one-hit wonders, few enough that a
// hot chunk reaches the top within a handful of requests.
const DefaultQ = 4

// Cache is the LRU(q) chunk cache. Not safe for concurrent use.
type Cache struct {
	cfg      core.Config
	name     string
	levels   []*lru.List    // levels[0] is evicted-first; levels[q-1] is safest
	level    map[uint64]int // chunk key -> level index
	lastTime int64
}

// New builds an LRU(q) cache with q recency levels; q <= 0 selects
// DefaultQ.
func New(cfg core.Config, q int) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if q <= 0 {
		q = DefaultQ
	}
	levels := make([]*lru.List, q)
	for i := range levels {
		levels[i] = lru.New()
	}
	return &Cache{cfg: cfg, name: "lruq", levels: levels, level: make(map[uint64]int)}, nil
}

// Q returns the configured level count.
func (c *Cache) Q() int { return len(c.levels) }

// Name implements core.Cache: "lruq", or "lru" when built as the
// registered always-fill baseline.
func (c *Cache) Name() string { return c.name }

// Len implements core.Cache.
func (c *Cache) Len() int { return len(c.level) }

// Contains implements core.Cache.
func (c *Cache) Contains(id chunk.ID) bool {
	_, ok := c.level[id.Key()]
	return ok
}

// Level reports which recency level currently holds the chunk (0 =
// evicted first), with ok=false when it is not cached. Introspection
// for tests and diagnostics.
func (c *Cache) Level(id chunk.ID) (lvl int, ok bool) {
	lvl, ok = c.level[id.Key()]
	return lvl, ok
}

// Forget undoes the admission of one chunk whose cache fill failed
// (the HTTP edge server's degrade-to-redirect path); no-op when the
// chunk is not on disk.
func (c *Cache) Forget(id chunk.ID) {
	key := id.Key()
	lvl, ok := c.level[key]
	if !ok {
		return
	}
	c.levels[lvl].Remove(key)
	delete(c.level, key)
}

// promote moves a hit chunk one level up (capped at the top level),
// refreshing its recency within the destination level.
func (c *Cache) promote(key uint64, now int64) {
	cur := c.level[key]
	nxt := cur + 1
	if nxt >= len(c.levels) {
		nxt = len(c.levels) - 1
	}
	if nxt != cur {
		c.levels[cur].Remove(key)
	}
	c.levels[nxt].Touch(key, now)
	c.level[key] = nxt
}

// evictOldest removes the LRU entry of the lowest non-empty level.
func (c *Cache) evictOldest() (chunk.ID, bool) {
	for _, l := range c.levels {
		if key, ok := l.RemoveOldest(); ok {
			delete(c.level, key)
			return chunk.FromKey(key), true
		}
	}
	return chunk.ID{}, false
}

// HandleRequest implements core.Cache. Always-fill: the only redirects
// are requests wider than the entire disk.
func (c *Cache) HandleRequest(r trace.Request) core.Outcome {
	now := r.Time
	if now < c.lastTime {
		panic(fmt.Sprintf("lruq: requests must arrive in non-decreasing time order (%d after %d)", now, c.lastTime))
	}
	c.lastTime = now

	c0, c1 := r.ChunkRange(c.cfg.ChunkSize)
	nChunks := int(c1-c0) + 1
	if nChunks > c.cfg.DiskChunks {
		return core.Outcome{Decision: core.Redirect}
	}
	var missing []chunk.ID
	for ci := c0; ci <= c1; ci++ {
		id := chunk.ID{Video: r.Video, Index: ci}
		if _, ok := c.level[id.Key()]; ok {
			c.promote(id.Key(), now)
		} else {
			missing = append(missing, id)
		}
	}
	evict := len(missing) - (c.cfg.DiskChunks - len(c.level))
	if evict < 0 {
		evict = 0
	}
	var evicted []chunk.ID
	for i := 0; i < evict; i++ {
		id, ok := c.evictOldest()
		if !ok {
			break
		}
		evicted = append(evicted, id)
	}
	for _, id := range missing {
		c.levels[0].Touch(id.Key(), now)
		c.level[id.Key()] = 0
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

var _ core.Cache = (*Cache)(nil)
