// Package prefetch implements the paper's "proactive caching" future
// work (Section 10): during off-peak hours, a cache with spare ingress
// capacity pre-fills chunks it expects to be requested, instead of
// letting the uplink idle.
//
// The planner does sequential read-ahead: it watches served requests,
// remembers which videos are active, and during the configured
// off-peak window suggests the next missing chunk after each active
// video's highest cached index (NextChunk, the rule the HTTP edge's
// /prefetch uses too) — the access pattern video sessions actually
// follow. The cache itself (via the Prefetchable interface)
// remains the gatekeeper: it only admits chunks its popularity state
// supports, so read-ahead cannot pollute the disk.
package prefetch

import (
	"errors"
	"fmt"
	"sort"

	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/cost"
	"videocdn/internal/metrics"
	"videocdn/internal/trace"
)

// Prefetchable is a cache that supports out-of-band chunk fills.
// *cafe.Cache implements it.
type Prefetchable interface {
	core.Cache
	// PrefetchChunk fills one chunk if the cache's policy admits it,
	// reporting any chunks displaced to make room.
	PrefetchChunk(id chunk.ID, now int64) (admitted bool, evicted []chunk.ID)
	// HighestCachedIndex supports sequential read-ahead planning.
	HighestCachedIndex(v chunk.VideoID) (uint32, bool)
}

// Sizes reports each video's size in bytes, as an origin's /size
// does; ok is false for an unknown video. edge.Catalog and
// workload.Generator implement it.
type Sizes interface {
	SizeOf(v chunk.VideoID) (size int64, ok bool)
}

// NextChunk is sequential read-ahead's rule: the chunk to fill next
// for video v of size bytes is the one after its highest cached index.
// ok is false when no chunk of v is cached or its last chunk already
// is.
func NextChunk(c interface {
	HighestCachedIndex(chunk.VideoID) (uint32, bool)
}, v chunk.VideoID, size, chunkSize int64) (id chunk.ID, ok bool) {
	hi, ok := c.HighestCachedIndex(v)
	if !ok || int64(hi) >= (size-1)/chunkSize {
		return chunk.ID{}, false
	}
	return chunk.ID{Video: v, Index: hi + 1}, true
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
	// Attempted and Accepted count PrefetchChunk calls and successes.
	Attempted, Accepted int
	// PrefetchedBytes is the extra ingress spent.
	PrefetchedBytes int64
	// UsefulChunks counts prefetched chunks later hit by a real
	// served request — the payoff.
	UsefulChunks int
}

// Result bundles replay metrics with prefetch stats.
type Result struct {
	// Total and Steady are the byte counters including prefetch
	// ingress (prefetched bytes are real cache-fill traffic and are
	// charged as such).
	Total, Steady cost.Counters
	Model         cost.Model
	Stats         Stats
	Requests      int
	// Series is the hourly time series (prefetch ingress included in
	// the hour it was spent — i.e. off-peak).
	Series *metrics.Series
}

// Efficiency is the steady-state efficiency with prefetch ingress
// charged (Eq. 2).
func (r *Result) Efficiency() float64 { return r.Steady.Efficiency(r.Model) }

// Replay drives reqs through the cache like sim.Replay, but runs the
// prefetch planner alongside: after each request, if the current time
// is inside the off-peak window and hourly budget remains, it
// prefetches ahead on recently served videos. sizes bounds read-ahead
// at each video's last chunk; a video with nothing to read ahead, or
// of unknown size, costs no budget.
func Replay(c Prefetchable, reqs []trace.Request, model cost.Model, pcfg Config, chunkSize int64, sizes Sizes) (*Result, error) {
	if err := pcfg.Validate(); err != nil {
		return nil, err
	}
	if len(reqs) == 0 {
		return nil, errors.New("prefetch: empty trace")
	}
	if pcfg.MaxPerVideo <= 0 {
		pcfg.MaxPerVideo = 4
	}
	if pcfg.ActiveVideos <= 0 {
		pcfg.ActiveVideos = 256
	}
	start := reqs[0].Time
	end := reqs[len(reqs)-1].Time
	steadyFrom := start + (end-start)/2

	series, err := metrics.NewSeries(3600)
	if err != nil {
		return nil, err
	}
	res := &Result{Model: model, Requests: len(reqs), Series: series}
	// Planner state: recently served videos (LRU by last serve).
	active := make(map[chunk.VideoID]int64)
	var order []chunk.VideoID            // active by recency, rebuilt when the planner runs
	ahead := make(map[chunk.VideoID]int) // chunks prefetched ahead this window
	pending := make(map[uint64]struct{}) // prefetched, not yet hit
	budget := 0
	curHour := int64(-1)

	for _, r := range reqs {
		var cnt cost.Counters
		cnt.Requested = r.Bytes()
		out := c.HandleRequest(r)
		switch out.Decision {
		case core.Serve:
			cnt.Filled = out.FilledBytes
			active[r.Video] = r.Time
			if len(active) > pcfg.ActiveVideos {
				evictOldest(active)
			}
			// Account usefulness: served chunks that were prefetched.
			c0, c1 := r.ChunkRange(chunkSize)
			filled := make(map[uint64]struct{}, len(out.FilledIDs))
			for _, id := range out.FilledIDs {
				filled[id.Key()] = struct{}{}
			}
			for ci := c0; ci <= c1; ci++ {
				key := (chunk.ID{Video: r.Video, Index: ci}).Key()
				if _, wasFill := filled[key]; wasFill {
					continue
				}
				if _, ok := pending[key]; ok {
					res.Stats.UsefulChunks++
					delete(pending, key)
				}
			}
		case core.Redirect:
			cnt.Redirected = r.Bytes()
		}
		res.Total.Add(cnt)
		if r.Time >= steadyFrom {
			res.Steady.Add(cnt)
		}
		series.Add(r.Time, cnt)

		// Hourly budget refresh.
		if h := r.Time / 3600; h != curHour {
			curHour = h
			budget = pcfg.ChunksPerHour
			ahead = make(map[chunk.VideoID]int)
		}
		if budget <= 0 || !pcfg.inWindow(int((r.Time%86400)/3600)) {
			continue
		}
		// Read ahead on the most recently served videos.
		order = byRecency(active, order)
		for _, v := range order {
			if budget <= 0 {
				break
			}
			if ahead[v] >= pcfg.MaxPerVideo {
				continue
			}
			size, known := sizes.SizeOf(v)
			if !known {
				continue
			}
			id, ok := NextChunk(c, v, size, chunkSize)
			if !ok {
				continue
			}
			res.Stats.Attempted++
			// The simulator tracks no byte store, so displaced chunks
			// need no cleanup here; the HTTP edge server must delete
			// them (see edge.Server.handlePrefetch).
			if admitted, _ := c.PrefetchChunk(id, r.Time); admitted {
				res.Stats.Accepted++
				res.Stats.PrefetchedBytes += chunkSize
				ahead[v]++
				pending[id.Key()] = struct{}{}
				pf := cost.Counters{Filled: chunkSize}
				res.Total.Add(pf)
				if r.Time >= steadyFrom {
					res.Steady.Add(pf)
				}
				series.Add(r.Time, pf)
			}
			budget--
		}
	}
	return res, nil
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
