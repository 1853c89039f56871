// Package admission implements a size/frequency admission filter that
// composes over any cache policy — in the spirit of the beyond-Belady
// byte-miss-ratio line of work (arXiv 2212.13671), which shows that
// for CDN caches *what you let in* matters as much as what you evict.
//
// The filter sits in front of an inner core.Cache and gates cache
// fills on accumulated evidence: a request whose missing chunks exceed
// the small-fill bypass must belong to a video that has already been
// requested enough times, with the evidence bar growing linearly in
// the fill size — one-hit wonders and giant cold files are redirected
// (the paper's second line of defense) instead of churning the disk.
// Requests whose chunks are fully resident, and small fills, pass
// straight through. Declined requests never reach the inner policy, so
// its popularity tracking only ever sees admitted traffic.
//
// Frequency counts are halved periodically (a decaying doorkeeper), so
// the filter adapts when popularity shifts and a one-time scan cannot
// permanently inflate a video's credit.
package admission

import (
	"fmt"

	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/trace"
)

// Defaults for Config's zero values.
const (
	DefaultMinHits     = 1
	DefaultSmallChunks = 1
	DefaultHalveEvery  = 4096
)

// Config tunes the admission filter.
type Config struct {
	// MinHits is the base evidence bar: a fill one bypass-unit large
	// needs this many prior requests for the video. 0 selects
	// DefaultMinHits; negative is rejected.
	MinHits int
	// SmallChunks is the small-fill bypass: fills of at most this many
	// chunks are always admitted (a cheap fill needs no evidence).
	// 0 selects DefaultSmallChunks; negative is rejected.
	SmallChunks int
	// HalveEvery halves all frequency counts every HalveEvery
	// requests, aging out stale popularity. 0 selects
	// DefaultHalveEvery; negative disables aging.
	HalveEvery int
}

// Cache wraps an inner policy with the admission filter. Not safe for
// concurrent use (same contract as every core.Cache).
type Cache struct {
	inner core.Cache
	cfg   core.Config
	opt   Config
	hits  map[chunk.VideoID]int
	reqs  int64
}

// Wrap builds the filter over inner. coreCfg must match the inner
// policy's configuration (the filter needs the chunk size to resolve
// request ranges and the capacity for its own sanity checks).
func Wrap(inner core.Cache, coreCfg core.Config, opt Config) (*Cache, error) {
	if inner == nil {
		return nil, fmt.Errorf("admission: nil inner cache")
	}
	if err := coreCfg.Validate(); err != nil {
		return nil, err
	}
	if opt.MinHits < 0 {
		return nil, fmt.Errorf("admission: MinHits must be >= 0, got %d", opt.MinHits)
	}
	if opt.SmallChunks < 0 {
		return nil, fmt.Errorf("admission: SmallChunks must be >= 0, got %d", opt.SmallChunks)
	}
	if opt.MinHits == 0 {
		opt.MinHits = DefaultMinHits
	}
	if opt.SmallChunks == 0 {
		opt.SmallChunks = DefaultSmallChunks
	}
	if opt.HalveEvery == 0 {
		opt.HalveEvery = DefaultHalveEvery
	}
	return &Cache{inner: inner, cfg: coreCfg, opt: opt, hits: make(map[chunk.VideoID]int)}, nil
}

// Inner returns the wrapped policy (introspection for tests).
func (c *Cache) Inner() core.Cache { return c.inner }

// Name implements core.Cache, naming the composition.
func (c *Cache) Name() string { return "admit(" + c.inner.Name() + ")" }

// Len implements core.Cache.
func (c *Cache) Len() int { return c.inner.Len() }

// Contains implements core.Cache.
func (c *Cache) Contains(id chunk.ID) bool { return c.inner.Contains(id) }

// Forget undoes one chunk's admission (fill-failure rollback),
// delegating to the inner policy when it supports rollback.
func (c *Cache) Forget(id chunk.ID) {
	if f, ok := c.inner.(interface{ Forget(chunk.ID) }); ok {
		f.Forget(id)
	}
}

// requiredHits is the evidence bar for a fill of `missing` chunks:
// zero within the small-fill bypass, then MinHits per additional
// bypass-unit of fill size — a big never-seen file must show
// proportionally more demand before it may displace residents.
func (c *Cache) requiredHits(missing int) int {
	if missing <= c.opt.SmallChunks {
		return 0
	}
	units := (missing + c.opt.SmallChunks - 1) / c.opt.SmallChunks
	return c.opt.MinHits * (units - 1)
}

// HandleRequest implements core.Cache: count the request, compute the
// would-be fill against the inner policy's resident set, and either
// decline it (redirect, inner untouched) or delegate.
func (c *Cache) HandleRequest(r trace.Request) core.Outcome {
	prior := c.hits[r.Video]
	c.hits[r.Video] = prior + 1
	c.reqs++
	if c.opt.HalveEvery > 0 && c.reqs%int64(c.opt.HalveEvery) == 0 {
		for v, n := range c.hits {
			if n >>= 1; n == 0 {
				delete(c.hits, v)
			} else {
				c.hits[v] = n
			}
		}
	}

	c0, c1 := r.ChunkRange(c.cfg.ChunkSize)
	missing := 0
	for ci := c0; ci <= c1; ci++ {
		if !c.inner.Contains(chunk.ID{Video: r.Video, Index: ci}) {
			missing++
		}
	}
	if missing > 0 && prior < c.requiredHits(missing) {
		return core.Outcome{Decision: core.Redirect}
	}
	return c.inner.HandleRequest(r)
}

var _ core.Cache = (*Cache)(nil)
