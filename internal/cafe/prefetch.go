package cafe

import (
	"videocdn/internal/chunk"
)

// PrefetchNext is sequential read-ahead, one step of it: the paper's
// "proactive caching for spare ingress" future-work hook (Section 10).
// It considers the chunk after video v's highest cached index and
// fills it outside the request path if Cafe admits it. There is no
// such chunk when nothing of v is cached, or when v's last chunk,
// index (size-1)/K for a video of size bytes, already is; considered
// is then false and the cache is left as it was. Otherwise id is the
// chunk considered, admitted reports whether it was filled, and
// evicted lists the chunks displaced to make room — drivers that
// materialize bytes (the HTTP edge server) must delete exactly those
// from their store, or the displaced bytes leak.
//
// Admission is conservative so prefetching cannot pollute the cache:
// the chunk needs an IAT estimate (its own history, or the video's
// cached-chunk estimate), and when the disk is full it must be
// strictly more popular (smaller estimated IAT) than the least popular
// resident, which it then displaces. A time before the cache's clock
// is considered but never admitted. Callers are responsible for
// spending ingress only when it is actually spare (e.g. off-peak); see
// internal/prefetch.
func (c *Cache) PrefetchNext(v chunk.VideoID, size, now int64) (id chunk.ID, considered, admitted bool, evicted []chunk.ID) {
	rec := c.videos[v]
	if rec == nil || rec.cached == 0 {
		return chunk.ID{}, false, false, nil
	}
	hi := len(rec.chunks) - 1
	for rec.chunks[hi].h == 0 {
		hi--
	}
	if int64(hi) >= (size-1)/c.cfg.ChunkSize {
		return chunk.ID{}, false, false, nil
	}
	id = chunk.ID{Video: v, Index: uint32(hi + 1)}
	if now < c.lastTime {
		// Prefetch uses the same logical clock as requests.
		return id, true, false, nil
	}
	if !c.started {
		c.firstTime = now
		c.started = true
	}
	c.lastTime = now
	rec.reach(id.Index)
	pop := c.popularity(rec, id.Index)
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
		if est, ok = c.videoEstimate(rec, now); !ok {
			return id, true, false, nil // nothing known; refuse blind ingress
		}
	}
	if free := c.cfg.DiskChunks - c.tree.Len(); free <= 0 {
		// Displace only a strictly less popular resident.
		if est >= c.CacheAge(now) {
			return id, true, false, nil
		}
		least, ok := c.tree.Min()
		if !ok {
			return id, true, false, nil
		}
		evicted = append(evicted, c.evictChunk(least))
	}
	if !pop.seen || pop.dt == unknownDT {
		// Materialize the estimate as the chunk's state so the set's
		// key and future cache-age lookups stay consistent.
		c.remember(pop, iatEntry{dt: est, t: now})
	}
	c.place(rec, id, c.treeKey(pop.iatEntry))
	return id, true, true, evicted
}

// ChunkSize returns K in bytes, the size of each chunk PrefetchNext
// fills.
func (c *Cache) ChunkSize() int64 { return c.cfg.ChunkSize }
