// Package gdsp implements Greedy-Dual-Size-Popularity replacement
// (Jin & Bestavros, ICDCS'00), one of the LRU variants the paper's
// related-work section positions itself against (Section 3).
//
// GDSP scores each cached object H = L + freq·cost/size, where L is an
// inflation value raised to the score of each evicted object —
// blending recency aging with access frequency. With the paper's
// fixed-size chunks and uniform fetch cost, the score reduces to
// H = L + freq.
//
// Like every classic replacement policy, GDSP answers only *what to
// evict*: it serves and fills every miss, never redirects. Comparing
// it against xLRU/Cafe quantifies the paper's core argument that the
// fill-vs-redirect admission decision — not smarter replacement — is
// where video CDN efficiency lives.
package gdsp

import (
	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/ordtree"
	"videocdn/internal/trace"
)

// Cache is an always-fill GDSP chunk cache. Not safe for concurrent
// use.
type Cache struct {
	cfg      core.Config
	tree     *ordtree.ByID  // chunk key -> H score
	freq     map[uint64]int // access count while cached
	inflate  float64        // L
	lastTime int64
	victims  []ordtree.Handle // eviction-scan scratch, reused
}

// New builds a GDSP cache.
func New(cfg core.Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Cache{
		cfg:  cfg,
		tree: ordtree.NewByID(ordtree.New()),
		freq: make(map[uint64]int),
	}, nil
}

// Name implements core.Cache.
func (c *Cache) Name() string { return "gdsp" }

// Len implements core.Cache.
func (c *Cache) Len() int { return c.tree.Len() }

// Contains implements core.Cache.
func (c *Cache) Contains(id chunk.ID) bool { return c.tree.Contains(id.Key()) }

// HandleRequest implements core.Cache.
func (c *Cache) HandleRequest(r trace.Request) core.Outcome {
	if r.Time < c.lastTime {
		panic("gdsp: requests must arrive in non-decreasing time order")
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
		if c.tree.Contains(key) {
			// Hit: bump frequency and re-score.
			c.freq[key]++
			c.tree.Insert(key, c.inflate+float64(c.freq[key]))
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
	loKey := chunk.ID{Video: r.Video, Index: c0}.Key()
	hiKey := chunk.ID{Video: r.Video, Index: c1}.Key()
	evicted := make([]chunk.ID, 0, evictN)
	for i := 0; i < evictN; i++ {
		c.victims = c.tree.AppendFirstOutside(c.victims[:0], 1, loKey, hiKey)
		if len(c.victims) == 0 {
			break
		}
		victim := c.victims[0]
		if h := c.tree.Key(victim); h > c.inflate {
			// Classic GDS aging: raise L to the evicted score.
			c.inflate = h
		}
		key := c.tree.Remove(victim)
		delete(c.freq, key)
		evicted = append(evicted, chunk.FromKey(key))
	}
	for _, id := range missing {
		key := id.Key()
		c.freq[key] = 1
		c.tree.Insert(key, c.inflate+1)
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
