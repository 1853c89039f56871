// Package shard provides a thread-safe cache built from N independent
// sub-caches, each owning a hash bucket of the video-ID space — the
// practice the paper's footnote 2 recommends ("bucketizing the large
// space of file IDs (e.g., using hash-mod) ... for dividing the file
// ID space over co-located servers to balance load and minimize
// co-located duplicates"), applied within one process.
//
// All chunks of a video land in the same shard (requests are
// per-video, Section 4), so a request takes exactly one shard lock and
// concurrent requests for different videos proceed in parallel —
// unlike a single mutex around one big cache.
//
// The composite behaves like N smaller servers rather than one big
// one: each shard runs its own replacement and admission over a
// 1/N-th disk. With hash-balanced load the efficiency penalty versus
// one unified cache is small (each shard's popularity distribution is
// a uniform sample of the whole).
package shard

import (
	"fmt"
	"sync"

	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/trace"
)

// Factory builds one shard's cache over its share of the disk.
type Factory func(shard int, cfg core.Config) (core.Cache, error)

// Group is the sharded, thread-safe composite cache.
type Group struct {
	shards []shardSlot
}

type shardSlot struct {
	mu       sync.Mutex
	cache    core.Cache
	lastTime int64
}

// New builds a group of n shards (n must be a power of two) over the
// total configuration cfg; each shard receives DiskChunks/n chunks.
func New(n int, cfg core.Config, factory Factory) (*Group, error) {
	if n <= 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("shard: count must be a positive power of two, got %d", n)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if factory == nil {
		return nil, fmt.Errorf("shard: nil factory")
	}
	per := cfg.DiskChunks / n
	if per < 1 {
		return nil, fmt.Errorf("shard: %d-chunk disk cannot be split %d ways", cfg.DiskChunks, n)
	}
	g := &Group{shards: make([]shardSlot, n)}
	for i := range g.shards {
		c, err := factory(i, core.Config{ChunkSize: cfg.ChunkSize, DiskChunks: per})
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		if c == nil {
			return nil, fmt.Errorf("shard %d: factory returned nil", i)
		}
		g.shards[i].cache = c
	}
	return g, nil
}

// ShardOf returns the shard index owning video v in an n-shard group
// (n must be a power of two). It delegates to chunk.ShardOf, the single
// placement function for the whole repository: Group dispatch, the
// parallel replay engine and the columnar trace writer all call it, so
// they can never disagree about which shard owns a video.
func ShardOf(v chunk.VideoID, n int) int { return chunk.ShardOf(v, n) }

// pick hashes a video to its shard slot via ShardOf.
func (g *Group) pick(v chunk.VideoID) *shardSlot {
	return &g.shards[ShardOf(v, len(g.shards))]
}

// NumShards returns the number of shards in the group.
func (g *Group) NumShards() int { return len(g.shards) }

// Shard returns shard i's underlying cache, bypassing the group's
// locking and timestamp clamping. It exists for the parallel replay
// engine (which partitions a trace with ShardOf and drives each shard
// on its own worker) and for introspection. The caller owns
// serialization: mixing direct Shard access with concurrent
// Group.HandleRequest calls is undefined behaviour.
func (g *Group) Shard(i int) core.Cache { return g.shards[i].cache }

// Name implements core.Cache.
func (g *Group) Name() string {
	return fmt.Sprintf("%s×%d", g.shards[0].cache.Name(), len(g.shards))
}

// Len implements core.Cache by summing the shards' chunk counts. Each
// shard is read under its own lock, so under concurrent mutation the
// total is a per-shard-consistent sum, not an atomic snapshot of the
// whole group at one instant (shard A may be read before and shard B
// after the same in-flight request).
func (g *Group) Len() int {
	total := 0
	for i := range g.shards {
		s := &g.shards[i]
		s.mu.Lock()
		total += s.cache.Len()
		s.mu.Unlock()
	}
	return total
}

// Contains implements core.Cache. Only the shard owning the chunk's
// video is consulted (and locked) — by construction no other shard can
// hold it.
func (g *Group) Contains(id chunk.ID) bool {
	s := g.pick(id.Video)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.Contains(id)
}

// Stat describes one shard's occupancy.
type Stat struct {
	// Shard is the shard index (the ShardOf value of its videos).
	Shard int
	// Chunks is the shard's current on-disk chunk count.
	Chunks int
}

// Stats reports per-shard occupancy so load imbalance across the hash
// buckets is observable (the package comment's efficiency argument
// assumes hash-balanced load; Stats is how to validate that on a real
// workload). Like Len, the snapshot is per-shard-consistent, not
// group-atomic.
func (g *Group) Stats() []Stat {
	out := make([]Stat, len(g.shards))
	for i := range g.shards {
		s := &g.shards[i]
		s.mu.Lock()
		out[i] = Stat{Shard: i, Chunks: s.cache.Len()}
		s.mu.Unlock()
	}
	return out
}

// HandleRequest implements core.Cache: one shard lock per request.
// Concurrent callers stamp requests before contending on the lock, so
// a shard can observe slightly out-of-order timestamps; the group
// clamps them to the shard's high-water mark (the skew is bounded by
// lock hold times, far below the seconds-granularity the algorithms
// reason at) instead of panicking like the single-cache
// implementations do on genuine replay bugs.
func (g *Group) HandleRequest(r trace.Request) core.Outcome {
	s := g.pick(r.Video)
	s.mu.Lock()
	defer s.mu.Unlock()
	if r.Time < s.lastTime {
		r.Time = s.lastTime
	}
	s.lastTime = r.Time
	return s.cache.HandleRequest(r)
}

var _ core.Cache = (*Group)(nil)
