// Package belady implements Belady's MIN algorithm (cited as the
// offline replacement optimum in Section 3 of the paper): an
// always-fill cache that evicts the chunk whose next request lies
// farthest in the future.
//
// Belady is offline like Psychic but answers only the *replacement*
// question — it serves and fills every miss, never redirects.
// Comparing Belady against Psychic therefore separates the paper's two
// ingredients: how much of the offline cache's win comes from perfect
// replacement, and how much from the serve-or-redirect admission
// decision that Belady lacks.
package belady

import (
	"math"

	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/ordtree"
	"videocdn/internal/psychic"
	"videocdn/internal/trace"
)

// Cache is the offline Belady replacement cache. Like Psychic, it must
// be replayed over exactly the request sequence it was built from.
// Not safe for concurrent use.
type Cache struct {
	cfg  core.Config
	reqs []trace.Request
	ix   *psychic.Index
	pos  int
	tree *ordtree.ByID // cached chunks by descending next-request time (+Inf if none)

	victims []ordtree.Handle // eviction-scan scratch, reused
}

// New builds a Belady cache over the full request sequence.
func New(cfg core.Config, reqs []trace.Request) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ix, err := psychic.BuildIndex(reqs, cfg.ChunkSize)
	if err != nil {
		return nil, err
	}
	return &Cache{cfg: cfg, reqs: reqs, ix: ix, tree: ordtree.NewByID(ordtree.NewDescending())}, nil
}

// Name implements core.Cache.
func (c *Cache) Name() string { return "belady" }

// Len implements core.Cache.
func (c *Cache) Len() int { return c.tree.Len() }

// Contains implements core.Cache.
func (c *Cache) Contains(id chunk.ID) bool { return c.tree.Contains(id.Key()) }

func (c *Cache) nextKey(id chunk.ID) float64 {
	t, ok := c.ix.NextTime(id)
	if !ok {
		return math.Inf(1)
	}
	return float64(t)
}

// HandleRequest implements core.Cache.
func (c *Cache) HandleRequest(r trace.Request) core.Outcome {
	if c.pos >= len(c.reqs) {
		panic("belady: more requests than the index was built from")
	}
	pos := c.pos
	c.pos++

	c0, c1 := r.ChunkRange(c.cfg.ChunkSize)
	nChunks := int(c1-c0) + 1
	for ci := c0; ci <= c1; ci++ {
		c.ix.Advance(chunk.ID{Video: r.Video, Index: ci}, pos)
	}
	if nChunks > c.cfg.DiskChunks {
		// Too large to hold at all; re-key cached members and pass.
		for ci := c0; ci <= c1; ci++ {
			id := chunk.ID{Video: r.Video, Index: ci}
			if c.tree.Contains(id.Key()) {
				c.tree.Insert(id.Key(), c.nextKey(id))
			}
		}
		return core.Outcome{Decision: core.Redirect}
	}

	var missing []chunk.ID
	for ci := c0; ci <= c1; ci++ {
		id := chunk.ID{Video: r.Video, Index: ci}
		if !c.tree.Contains(id.Key()) {
			missing = append(missing, id)
		}
	}
	evictN := len(missing) - (c.cfg.DiskChunks - c.tree.Len())
	if evictN < 0 {
		evictN = 0
	}
	// The requested chunks are one contiguous packed-key range and are
	// never their own victims.
	c.victims = c.tree.AppendFirstOutside(c.victims[:0], evictN,
		chunk.ID{Video: r.Video, Index: c0}.Key(), chunk.ID{Video: r.Video, Index: c1}.Key())
	evicted := make([]chunk.ID, 0, len(c.victims))
	for _, h := range c.victims {
		evicted = append(evicted, chunk.FromKey(c.tree.Remove(h)))
	}
	for ci := c0; ci <= c1; ci++ {
		id := chunk.ID{Video: r.Video, Index: ci}
		c.tree.Insert(id.Key(), c.nextKey(id))
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
