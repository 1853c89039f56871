package cafe

import (
	"videocdn/internal/chunk"
)

// PrefetchChunk proactively fills one chunk outside the request path —
// the paper's "proactive caching for spare ingress" future-work hook
// (Section 10). It returns whether the chunk was admitted, plus the
// chunks displaced to make room — drivers that materialize bytes (the
// HTTP edge server) must delete exactly those from their store, or the
// displaced bytes leak.
//
// Admission is conservative so prefetching cannot pollute the cache:
// the chunk needs an IAT estimate (its own history, or the video's
// cached-chunk estimate), and when the disk is full it must be
// strictly more popular (smaller estimated IAT) than the least popular
// resident, which it then displaces. Callers are responsible for
// spending ingress only when it is actually spare (e.g. off-peak); see
// internal/prefetch.
func (c *Cache) PrefetchChunk(id chunk.ID, now int64) (admitted bool, evicted []chunk.ID) {
	if now < c.lastTime {
		// Prefetch uses the same logical clock as requests.
		return false, nil
	}
	if !c.started {
		c.firstTime = now
		c.started = true
	}
	c.lastTime = now
	v := c.videos[id.Video]
	if v == nil {
		return false, nil // nothing known; refuse blind ingress
	}
	v.reach(id.Index)
	if v.chunks[id.Index].h != 0 {
		return false, nil
	}
	pop := c.popularity(v, id.Index)
	var est float64
	switch {
	case pop.seen && pop.dt != unknownDT:
		est = c.iatAt(pop.iatEntry, now)
	case pop.seen:
		est = float64(now - pop.t)
		if est < 1 {
			est = 1
		}
	default:
		var ok bool
		if est, ok = c.videoEstimate(v, now); !ok {
			return false, nil // nothing known; refuse blind ingress
		}
	}
	if free := c.cfg.DiskChunks - c.tree.Len(); free <= 0 {
		// Displace only a strictly less popular resident.
		if est >= c.CacheAge(now) {
			return false, nil
		}
		least, ok := c.tree.Min()
		if !ok {
			return false, nil
		}
		evicted = append(evicted, c.evictChunk(least))
	}
	if !pop.seen || pop.dt == unknownDT {
		// Materialize the estimate as the chunk's state so the set's
		// key and future cache-age lookups stay consistent.
		c.remember(pop, iatEntry{dt: est, t: now})
	}
	c.place(v, id, c.treeKey(pop.iatEntry))
	return true, evicted
}

// HighestCachedIndex returns the largest cached chunk index of the
// video, ok=false when none is cached. Prefetch planners use it for
// sequential read-ahead.
func (c *Cache) HighestCachedIndex(v chunk.VideoID) (uint32, bool) {
	rec := c.videos[v]
	if rec == nil || rec.cached == 0 {
		return 0, false
	}
	i := len(rec.chunks) - 1
	for rec.chunks[i].h == 0 {
		i--
	}
	return uint32(i), true
}
