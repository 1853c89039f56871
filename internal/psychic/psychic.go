package psychic

import (
	"math"

	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/ordtree"
	"videocdn/internal/trace"
)

// DefaultN bounds the future list L_x per chunk; the paper found N = 10
// sufficient ("no gain with higher values").
const DefaultN = 10

// Options tune Psychic beyond the shared core.Config.
type Options struct {
	// N bounds |L_x|, the number of future requests considered per
	// chunk. Defaults to DefaultN.
	N int
	// Strict makes HandleRequest verify each request against the
	// trace the index was built from, catching replay drift. Costs one
	// comparison per request; recommended everywhere but hot loops.
	Strict bool
}

// Cache is the Psychic offline cache. It must be replayed over exactly
// the request sequence its index was built from, in order. Not safe
// for concurrent use.
//
// Serving/redirect costs follow Eqs. 13-14: like Cafe's Eqs. 6-7 but
// with the expected number of future requests computed from the future
// itself — each future request at time t contributes T/(t − t_now) —
// and with eviction victims chosen as the cached chunks requested
// farthest in the future (Belady-style). The window T is the average
// time evicted chunks had stayed in the cache, since Psychic keeps no
// past history to define a cache age with.
type Cache struct {
	cfg   core.Config
	alpha float64
	cf    float64
	cr    float64
	minFR float64
	opt   Options

	reqs []trace.Request
	ix   *Index
	pos  int

	tree       *ordtree.ByID    // cached chunks by descending next-request time (+Inf if none)
	insertedAt map[uint64]int64 // chunk key -> fill time (residence tracking)

	residSum   float64 // accumulated residence of evicted chunks
	residCount int64

	firstTime int64
	traceSpan float64          // duration of the whole indexed trace
	buf       []int64          // scratch for AppendNextTimes
	victims   []ordtree.Handle // eviction-scan scratch, reused
}

// New builds a Psychic cache over the full request sequence reqs. The
// slice is retained (not copied); callers must not mutate it during
// replay.
func New(cfg core.Config, alpha float64, reqs []trace.Request, opt Options) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if alpha <= 0 {
		return nil, core.ErrBadAlpha
	}
	if opt.N == 0 {
		opt.N = DefaultN
	}
	if opt.N < 0 {
		return nil, core.ErrBadFutureN
	}
	ix, err := BuildIndex(reqs, cfg.ChunkSize)
	if err != nil {
		return nil, err
	}
	cf := 2 * alpha / (alpha + 1)
	cr := 2 / (alpha + 1)
	first := int64(0)
	span := 1.0
	if len(reqs) > 0 {
		first = reqs[0].Time
		if s := float64(reqs[len(reqs)-1].Time - first); s > 1 {
			span = s
		}
	}
	return &Cache{
		cfg:        cfg,
		alpha:      alpha,
		cf:         cf,
		cr:         cr,
		minFR:      math.Min(cf, cr),
		opt:        opt,
		reqs:       reqs,
		ix:         ix,
		tree:       ordtree.NewByID(ordtree.NewDescending()),
		insertedAt: make(map[uint64]int64),
		firstTime:  first,
		traceSpan:  span,
		buf:        make([]int64, 0, opt.N),
	}, nil
}

// Name implements core.Cache.
func (c *Cache) Name() string { return "psychic" }

// Len implements core.Cache.
func (c *Cache) Len() int { return c.tree.Len() }

// Contains implements core.Cache.
func (c *Cache) Contains(id chunk.ID) bool { return c.tree.Contains(id.Key()) }

// CacheAge returns the window T: the average residence time of evicted
// chunks so far. Before any eviction exists (the disk still has free
// space) it falls back to the full trace span — Psychic is offline, so
// "a chunk filled now may stay until the end" is the honest prior.
func (c *Cache) CacheAge(now int64) float64 {
	if c.residCount == 0 {
		return c.traceSpan
	}
	return c.residSum / float64(c.residCount)
}

// futureCost is Σ_{t ∈ L_x} T/(t − t_now) · min(C_F, C_R) for one
// chunk.
func (c *Cache) futureCost(id chunk.ID, now int64, window float64) float64 {
	c.buf = c.ix.AppendNextTimes(id, c.opt.N, c.buf[:0])
	sum := 0.0
	for _, t := range c.buf {
		gap := float64(t - now)
		if gap < 1 {
			gap = 1
		}
		sum += window / gap
	}
	return sum * c.minFR
}

// nextKey returns the tree key for a chunk: its next request time, or
// +Inf if it is never requested again.
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
		panic("psychic: more requests than the index was built from")
	}
	if c.opt.Strict && c.reqs[c.pos] != r {
		panic("psychic: replayed request diverges from the indexed trace")
	}
	pos := c.pos
	c.pos++
	now := r.Time

	c0, c1 := r.ChunkRange(c.cfg.ChunkSize)
	nChunks := int(c1-c0) + 1

	// Consume this request's occurrences so every lookup below sees
	// strictly-future requests only.
	for ci := c0; ci <= c1; ci++ {
		c.ix.Advance(chunk.ID{Video: r.Video, Index: ci}, pos)
	}

	if nChunks > c.cfg.DiskChunks {
		c.rekeyCached(r.Video, c0, c1)
		return core.Outcome{Decision: core.Redirect}
	}

	var missing []chunk.ID
	for ci := c0; ci <= c1; ci++ {
		id := chunk.ID{Video: r.Video, Index: ci}
		if !c.tree.Contains(id.Key()) {
			missing = append(missing, id)
		}
	}

	serve := false
	var victims []ordtree.Handle
	free := c.cfg.DiskChunks - c.tree.Len()
	needEvict := len(missing) - free
	if needEvict < 0 {
		needEvict = 0
	}

	switch {
	case len(missing) == 0:
		serve = true
	case free >= len(missing):
		// Even with free space, filling a chunk that earns no future
		// hits is pure wasted ingress; the cost test (with an empty
		// eviction term) decides.
		window := c.CacheAge(now)
		costServe := float64(len(missing)) * c.cf
		costRedirect := float64(nChunks) * c.cr
		for _, id := range missing {
			costRedirect += c.futureCost(id, now, window)
		}
		serve = costServe < costRedirect
	default:
		window := c.CacheAge(now)
		costRedirect := float64(nChunks) * c.cr
		for _, id := range missing {
			costRedirect += c.futureCost(id, now, window)
		}
		// Every victim adds a cost >= 0 to the fills, and adding a
		// non-negative float never lowers a sum: if the fills alone are
		// not cheaper than redirecting, no victim set makes serving so,
		// and the request redirects without a scan.
		costServe := float64(len(missing)) * c.cf
		if !(costServe < costRedirect) {
			break
		}
		// The requested chunks are one contiguous packed-key range and
		// are never their own victims.
		victims = c.tree.AppendFirstOutside(c.victims[:0], needEvict,
			chunk.ID{Video: r.Video, Index: c0}.Key(), chunk.ID{Video: r.Video, Index: c1}.Key())
		c.victims = victims
		if len(victims) < needEvict {
			break
		}
		for _, h := range victims {
			costServe += c.futureCost(chunk.FromKey(c.tree.ID(h)), now, window)
		}
		serve = costServe < costRedirect
	}

	if !serve {
		c.rekeyCached(r.Video, c0, c1)
		return core.Outcome{Decision: core.Redirect}
	}

	evicted := make([]chunk.ID, 0, len(victims))
	for _, h := range victims {
		evicted = append(evicted, chunk.FromKey(c.evict(h, now)))
	}
	for _, id := range missing {
		c.insertedAt[id.Key()] = now
	}
	// (Re-)key every requested chunk by its next request time.
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

// rekeyCached refreshes tree keys of the cached requested chunks after
// their cursors moved (their "next request" changed even though the
// request was redirected or oversized).
func (c *Cache) rekeyCached(v chunk.VideoID, c0, c1 uint32) {
	for ci := c0; ci <= c1; ci++ {
		id := chunk.ID{Video: v, Index: ci}
		if c.tree.Contains(id.Key()) {
			c.tree.Insert(id.Key(), c.nextKey(id))
		}
	}
}

// evict removes the chunk h names from the disk and returns its key.
func (c *Cache) evict(h ordtree.Handle, now int64) uint64 {
	vid := c.tree.Remove(h)
	if t0, ok := c.insertedAt[vid]; ok {
		c.residSum += float64(now - t0)
		c.residCount++
		delete(c.insertedAt, vid)
	}
	return vid
}
