// Package prefetch implements the paper's "proactive caching" future
// work (Section 10): during off-peak hours, a cache with spare ingress
// capacity pre-fills chunks it expects to be requested, instead of
// letting the uplink idle.
//
// The planner does sequential read-ahead: it watches served requests,
// remembers which videos are active, and during the configured
// off-peak window asks the cache to read ahead on each active video:
// the chunk after its highest cached index, the access pattern video
// sessions actually follow. The cache owns that rule (PrefetchNext,
// the step the HTTP edge's /prefetch takes too) and remains the
// gatekeeper: it only admits chunks its popularity state supports, so
// read-ahead cannot pollute the disk.
package prefetch

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/trace"
)

// Prefetchable is a cache that supports out-of-band chunk fills.
// *cafe.Cache implements it.
type Prefetchable interface {
	core.Cache
	// PrefetchNext considers the chunk after video v's highest cached
	// index, none when nothing of v is cached or v's last chunk (for
	// a video of size bytes) already is, and fills it if the cache's
	// policy admits it, reporting any chunks displaced to make room.
	PrefetchNext(v chunk.VideoID, size, now int64) (id chunk.ID, considered, admitted bool, evicted []chunk.ID)
	// ChunkSize is K in bytes, the size of every chunk PrefetchNext
	// fills.
	ChunkSize() int64
}

// Sizes reports each video's size in bytes, as an origin's /size
// does; ok is false for an unknown video. edge.Catalog and
// workload.Generator implement it.
type Sizes interface {
	SizeOf(v chunk.VideoID) (size int64, ok bool)
}

// Config tunes the prefetcher.
type Config struct {
	// StartHour and EndHour delimit the off-peak window in hours of
	// day [0,24); the window may wrap midnight (Start > End). Equal
	// values disable the window check (always on).
	StartHour, EndHour int
	// ChunksPerHour is the spare-ingress budget.
	ChunksPerHour int
	// MaxPerVideo caps how far ahead of the highest cached index the
	// planner will prefetch per window.
	MaxPerVideo int
	// ActiveVideos caps the planner's working set.
	ActiveVideos int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.StartHour < 0 || c.StartHour > 23 || c.EndHour < 0 || c.EndHour > 23 {
		return fmt.Errorf("prefetch: hours must be in [0,23], got [%d,%d)", c.StartHour, c.EndHour)
	}
	if c.ChunksPerHour <= 0 {
		return errors.New("prefetch: ChunksPerHour must be positive")
	}
	return nil
}

// inWindow reports whether hour-of-day h falls in the off-peak window.
func (c Config) inWindow(h int) bool {
	if c.StartHour == c.EndHour {
		return true
	}
	if c.StartHour < c.EndHour {
		return h >= c.StartHour && h < c.EndHour
	}
	return h >= c.StartHour || h < c.EndHour
}

// Stats reports what prefetching did.
type Stats struct {
	// Attempted and Accepted count the chunks considered for read-ahead
	// and those the cache admitted.
	Attempted, Accepted int
	// PrefetchedBytes is the extra ingress spent.
	PrefetchedBytes int64
	// UsefulChunks counts prefetched chunks later hit by a real
	// served request — the payoff.
	UsefulChunks int
}

// Plan returns the read-ahead planner as a replay's per-request hook,
// called after the cache handled r with outcome out, and the stats it
// keeps. The hook watches served requests and, while the current time
// is inside the off-peak window and hourly budget remains, prefetches
// ahead on recently served videos; it returns the bytes it prefetched
// at r.Time. The sizes catalog bounds read-ahead at each video's last
// chunk; a video with nothing to read ahead, or of unknown size, costs
// no budget. Prefetched bytes and request ranges are counted in the
// cache's own chunk size.
func Plan(c Prefetchable, cfg Config, sizes Sizes) (observe func(r trace.Request, out core.Outcome) int64, stats *Stats, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if sizes == nil {
		return nil, nil, errors.New("prefetch: nil size catalog")
	}
	chunkSize := c.ChunkSize()
	if cfg.MaxPerVideo <= 0 {
		cfg.MaxPerVideo = 4
	}
	if cfg.ActiveVideos <= 0 {
		cfg.ActiveVideos = 256
	}
	active := make(map[chunk.VideoID]int64) // recently served videos, by last serve
	var order []chunk.VideoID               // active by recency, rebuilt when the planner runs
	ahead := make(map[chunk.VideoID]int)    // chunks prefetched ahead this hour
	pending := make(map[uint64]struct{})    // prefetched, not yet hit
	budget, curHour := 0, int64(-1)
	stats = &Stats{}
	observe = func(r trace.Request, out core.Outcome) int64 {
		if out.Decision == core.Serve {
			active[r.Video] = r.Time
			if len(active) > cfg.ActiveVideos {
				evictOldest(active)
			}
			// Account usefulness: served chunks that were prefetched
			// and not filled again by this request.
			c0, c1 := r.ChunkRange(chunkSize)
			for ci := c0; ci <= c1; ci++ {
				id := chunk.ID{Video: r.Video, Index: ci}
				if _, ok := pending[id.Key()]; ok && !slices.Contains(out.FilledIDs, id) {
					stats.UsefulChunks++
					delete(pending, id.Key())
				}
			}
		}

		// Hourly budget refresh.
		if h := r.Time / 3600; h != curHour {
			curHour = h
			budget = cfg.ChunksPerHour
			ahead = make(map[chunk.VideoID]int)
		}
		if budget <= 0 || !cfg.inWindow(int((r.Time%86400)/3600)) {
			return 0
		}
		// Read ahead on the most recently served videos.
		var filled int64
		order = byRecency(active, order)
		for _, v := range order {
			if budget <= 0 {
				break
			}
			if ahead[v] >= cfg.MaxPerVideo {
				continue
			}
			size, known := sizes.SizeOf(v)
			if !known {
				continue
			}
			// The simulator tracks no byte store, so displaced chunks
			// need no cleanup here; the HTTP edge server must delete
			// them (see edge.Server.handlePrefetch).
			id, considered, admitted, _ := c.PrefetchNext(v, size, r.Time)
			if !considered {
				continue
			}
			stats.Attempted++
			if admitted {
				stats.Accepted++
				stats.PrefetchedBytes += chunkSize
				ahead[v]++
				pending[id.Key()] = struct{}{}
				filled += chunkSize
			}
			budget--
		}
		return filled
	}
	return observe, stats, nil
}

// byRecency lists the active videos most recently served first, ties
// by video ID, into buf: the budget goes to the same videos on every
// replay of a trace, which ranging over the map would not give.
func byRecency(active map[chunk.VideoID]int64, buf []chunk.VideoID) []chunk.VideoID {
	buf = buf[:0]
	for v := range active {
		buf = append(buf, v)
	}
	sort.Slice(buf, func(i, j int) bool {
		if ti, tj := active[buf[i]], active[buf[j]]; ti != tj {
			return ti > tj
		}
		return buf[i] < buf[j]
	})
	return buf
}

// evictOldest drops the video byRecency would list last.
func evictOldest(m map[chunk.VideoID]int64) {
	var oldest chunk.VideoID
	var t int64 = 1<<63 - 1
	for v, tm := range m {
		if tm < t || tm == t && v > oldest {
			t = tm
			oldest = v
		}
	}
	delete(m, oldest)
}
