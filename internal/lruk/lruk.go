// Package lruk implements the LRU-K replacement policy (O'Neil,
// O'Neil & Weikum, SIGMOD'93), cited in Section 3 of the paper as one
// of the frequency-aware LRU variants that still answer only the
// replacement question.
//
// LRU-K orders objects by their backward K-distance: the time of their
// K-th most recent reference. Objects referenced fewer than K times
// have infinite backward distance and are evicted first (in plain LRU
// order among themselves); the classic choice K = 2 discriminates
// one-hit wonders from genuinely re-referenced objects.
//
// Like lru and gdsp, this cache serves and fills every miss — the
// contrast with xLRU/Cafe isolates the value of the paper's
// fill-or-redirect admission decision.
package lruk

import (
	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/ordtree"
	"videocdn/internal/trace"
)

// DefaultK is the classic LRU-2 configuration.
const DefaultK = 2

// Cache is an always-fill LRU-K chunk cache. Not safe for concurrent
// use.
type Cache struct {
	cfg core.Config
	k   int
	// tree orders cached chunks by eviction priority: key =
	// (kth-recent access time), with never-K-referenced chunks keyed
	// by (their last access − horizon) so they sort below all
	// K-referenced chunks while preserving LRU order among themselves.
	tree     *ordtree.ByID
	hist     map[uint64][]int64 // chunk key -> last up-to-K access times (newest first)
	lastTime int64
	victims  []ordtree.Handle // eviction-scan scratch, reused
}

// horizon separates the "fewer than K references" band from the
// K-referenced band in the key space. Trace times are far below it.
const horizon = int64(1) << 40

// New builds an LRU-K cache; k <= 0 selects DefaultK.
func New(cfg core.Config, k int) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if k <= 0 {
		k = DefaultK
	}
	return &Cache{
		cfg:  cfg,
		k:    k,
		tree: ordtree.NewByID(ordtree.New()),
		hist: make(map[uint64][]int64),
	}, nil
}

// Name implements core.Cache.
func (c *Cache) Name() string { return "lruk" }

// Len implements core.Cache.
func (c *Cache) Len() int { return c.tree.Len() }

// Contains implements core.Cache.
func (c *Cache) Contains(id chunk.ID) bool { return c.tree.Contains(id.Key()) }

// key computes the eviction-order key from a chunk's reference
// history.
func (c *Cache) key(h []int64) float64 {
	if len(h) >= c.k {
		return float64(h[c.k-1]) // K-th most recent reference time
	}
	// Fewer than K references: below every K-referenced chunk, LRU
	// order among themselves.
	return float64(h[0] - horizon)
}

// HandleRequest implements core.Cache.
func (c *Cache) HandleRequest(r trace.Request) core.Outcome {
	if r.Time < c.lastTime {
		panic("lruk: requests must arrive in non-decreasing time order")
	}
	c.lastTime = r.Time

	c0, c1 := r.ChunkRange(c.cfg.ChunkSize)
	nChunks := int(c1-c0) + 1
	if nChunks > c.cfg.DiskChunks {
		return core.Outcome{Decision: core.Redirect}
	}
	var missing []chunk.ID
	for ci := c0; ci <= c1; ci++ {
		id := chunk.ID{Video: r.Video, Index: ci}
		key := id.Key()
		// Record the reference (kept only while cached; evicted
		// history is dropped, the paper notes such borderline objects
		// rarely return soon anyway).
		h := c.hist[key]
		h = append([]int64{r.Time}, h...)
		if len(h) > c.k {
			h = h[:c.k]
		}
		c.hist[key] = h
		if c.tree.Contains(key) {
			c.tree.Insert(key, c.key(h))
		} else {
			missing = append(missing, id)
		}
	}
	evictN := len(missing) - (c.cfg.DiskChunks - c.tree.Len())
	if evictN < 0 {
		evictN = 0
	}
	// The requested chunks are one contiguous packed-key range and are
	// never their own victims.
	victims := c.tree.AppendFirstOutside(c.victims[:0], evictN,
		chunk.ID{Video: r.Video, Index: c0}.Key(), chunk.ID{Video: r.Video, Index: c1}.Key())
	c.victims = victims
	if len(victims) < evictN {
		// Cannot make room without evicting requested chunks.
		return core.Outcome{Decision: core.Redirect}
	}
	evicted := make([]chunk.ID, 0, len(victims))
	for _, h := range victims {
		key := c.tree.Remove(h)
		delete(c.hist, key)
		evicted = append(evicted, chunk.FromKey(key))
	}
	for _, id := range missing {
		c.tree.Insert(id.Key(), c.key(c.hist[id.Key()]))
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
