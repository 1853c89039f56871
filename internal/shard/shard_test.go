package shard

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"videocdn/internal/cafe"
	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/trace"
	"videocdn/internal/xlru"
)

const testK = 1024

func req(t int64, v chunk.VideoID, c0, c1 int) trace.Request {
	return trace.Request{Time: t, Video: v, Start: int64(c0) * testK, End: int64(c1+1)*testK - 1}
}

func cafeFactory(alpha float64) Factory {
	return func(_ int, cfg core.Config) (core.Cache, error) {
		return cafe.New(cfg, alpha, cafe.Options{})
	}
}

func TestNewValidation(t *testing.T) {
	cfg := core.Config{ChunkSize: testK, DiskChunks: 64}
	if _, err := New(3, cfg, cafeFactory(1)); err == nil {
		t.Error("non-power-of-two count should fail")
	}
	if _, err := New(0, cfg, cafeFactory(1)); err == nil {
		t.Error("zero count should fail")
	}
	if _, err := New(4, core.Config{}, cafeFactory(1)); err == nil {
		t.Error("bad config should fail")
	}
	if _, err := New(4, cfg, nil); err == nil {
		t.Error("nil factory should fail")
	}
	if _, err := New(128, core.Config{ChunkSize: testK, DiskChunks: 64}, cafeFactory(1)); err == nil {
		t.Error("more shards than chunks should fail")
	}
	if _, err := New(2, cfg, func(int, core.Config) (core.Cache, error) {
		return nil, errors.New("boom")
	}); err == nil {
		t.Error("factory error should propagate")
	}
}

func TestVideoAffinityAndName(t *testing.T) {
	cfg := core.Config{ChunkSize: testK, DiskChunks: 64}
	g, err := New(4, cfg, cafeFactory(1))
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "cafe×4" {
		t.Errorf("Name = %q", g.Name())
	}
	// All chunks of one video land in the same shard: after serving a
	// multi-chunk request, Contains sees every chunk.
	g.HandleRequest(req(0, 7, 0, 3))
	for i := uint32(0); i < 4; i++ {
		if !g.Contains(chunk.ID{Video: 7, Index: i}) {
			t.Errorf("chunk %d missing after fill", i)
		}
	}
	if g.Len() != 4 {
		t.Errorf("Len = %d", g.Len())
	}
}

func TestShardsIsolateCapacity(t *testing.T) {
	// Total 8 chunks over 2 shards -> 4 per shard. One shard cannot
	// exceed its own quota even if the other is empty.
	cfg := core.Config{ChunkSize: testK, DiskChunks: 8}
	g, err := New(2, cfg, func(_ int, c core.Config) (core.Cache, error) {
		return xlru.New(c, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Find two videos in the same shard.
	s0 := g.pick(1)
	var sameShard chunk.VideoID
	for v := chunk.VideoID(2); ; v++ {
		if g.pick(v) == s0 {
			sameShard = v
			break
		}
	}
	g.HandleRequest(req(0, 1, 0, 3))         // 4 chunks fill shard
	g.HandleRequest(req(1, sameShard, 0, 3)) // same shard: must evict, not grow
	if g.Len() > 8 {
		t.Errorf("Len = %d exceeds total disk", g.Len())
	}
}

func TestConcurrentRequests(t *testing.T) {
	cfg := core.Config{ChunkSize: testK, DiskChunks: 256}
	g, err := New(8, cfg, cafeFactory(2))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			tm := int64(0)
			for i := 0; i < 500; i++ {
				v := chunk.VideoID(rng.Intn(100))
				g.HandleRequest(req(tm, v, 0, rng.Intn(3)))
				tm += int64(rng.Intn(3))
			}
		}(w)
	}
	wg.Wait()
	if g.Len() > 256 {
		t.Errorf("Len = %d exceeds capacity", g.Len())
	}
}

// TestShardOfMatchesPick pins the placement contract ReplayParallel
// relies on: chunk.ShardOf and the group's internal pick must never
// disagree, and placement depends only on the video ID.
func TestShardOfMatchesPick(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 64} {
		chunks := 64
		if chunks < n {
			chunks = n
		}
		g, err := New(n, core.Config{ChunkSize: testK, DiskChunks: chunks}, cafeFactory(1))
		if err != nil {
			t.Fatal(err)
		}
		for v := chunk.VideoID(0); v < 2000; v++ {
			got := chunk.ShardOf(v, n)
			if got < 0 || got >= n {
				t.Fatalf("ShardOf(%d, %d) = %d out of range", v, n, got)
			}
			if g.pick(v) != &g.shards[got] {
				t.Fatalf("ShardOf(%d, %d) = %d disagrees with pick", v, n, got)
			}
		}
	}
}

// TestShardOfBalance: the splitmix64 finalizer spreads sequential video
// IDs near-uniformly — no shard may be pathologically over-loaded.
func TestShardOfBalance(t *testing.T) {
	const n, videos = 8, 80000
	counts := make([]int, n)
	for v := chunk.VideoID(0); v < videos; v++ {
		counts[chunk.ShardOf(v, n)]++
	}
	want := videos / n
	for s, c := range counts {
		if c < want*8/10 || c > want*12/10 {
			t.Errorf("shard %d holds %d of %d videos (want ~%d)", s, c, videos, want)
		}
	}
}

// TestConcurrentMixedOps hammers one group with writers and readers
// (HandleRequest, Len, Contains) so `go test -race` exercises
// every public entry point concurrently.
func TestConcurrentMixedOps(t *testing.T) {
	cfg := core.Config{ChunkSize: testK, DiskChunks: 256}
	g, err := New(8, cfg, cafeFactory(2))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			tm := int64(0)
			for i := 0; i < 400; i++ {
				g.HandleRequest(req(tm, chunk.VideoID(rng.Intn(120)), 0, rng.Intn(3)))
				tm += int64(rng.Intn(3))
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < 400; i++ {
				if i%2 == 0 {
					if n := g.Len(); n < 0 || n > 256 {
						t.Errorf("Len %d out of bounds", n)
					}
				} else {
					g.Contains(chunk.ID{Video: chunk.VideoID(rng.Intn(120)), Index: uint32(rng.Intn(3))})
				}
			}
		}(w)
	}
	wg.Wait()
	if g.Len() > 256 {
		t.Errorf("Len = %d exceeds capacity", g.Len())
	}
}

// Sharding costs little efficiency versus a unified cache on a
// hash-balanced workload (the footnote-2 rationale).
func TestShardingEfficiencyPenaltySmall(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var reqs []trace.Request
	tm := int64(0)
	for i := 0; i < 8000; i++ {
		// Zipf-ish popularity.
		r := rng.Float64()
		v := chunk.VideoID(float64(300) * r * r)
		reqs = append(reqs, req(tm, v, 0, rng.Intn(3)))
		tm += int64(rng.Intn(5))
	}
	cfg := core.Config{ChunkSize: testK, DiskChunks: 512}
	unified, err := cafe.New(cfg, 2, cafe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := New(4, cfg, cafeFactory(2))
	if err != nil {
		t.Fatal(err)
	}
	fills := func(c core.Cache) (n int64) {
		for _, r := range reqs {
			n += int64(c.HandleRequest(r).FilledChunks)
		}
		return n
	}
	fu, fs := fills(unified), fills(sharded)
	// Allow the sharded group up to 40% more ingress on this small
	// noisy workload; in practice it is much closer.
	if float64(fs) > 1.4*float64(fu) {
		t.Errorf("sharded fills %d vs unified %d: penalty too large", fs, fu)
	}
}
