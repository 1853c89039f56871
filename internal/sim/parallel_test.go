package sim

import (
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"videocdn/internal/cafe"
	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/cost"
	"videocdn/internal/shard"
	"videocdn/internal/trace"
	"videocdn/internal/xlru"
)

// parallelTrace synthesizes a time-ordered Zipf-ish trace that exercises
// fills, hits, redirects and evictions on a small disk.
func parallelTrace(n int, seed int64) []trace.Request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]trace.Request, 0, n)
	tm := int64(0)
	for i := 0; i < n; i++ {
		r := rng.Float64()
		v := chunk.VideoID(1 + int(float64(200)*r*r))
		reqs = append(reqs, req(tm, v, 0, rng.Intn(4)))
		tm += int64(rng.Intn(7))
	}
	return reqs
}

type cacheFactory struct {
	name string
	mk   shard.Factory
}

func parallelFactories() []cacheFactory {
	return []cacheFactory{
		{"cafe", func(_ int, cfg core.Config) (core.Cache, error) {
			return cafe.New(cfg, 2, cafe.Options{})
		}},
		{"xlru", func(_ int, cfg core.Config) (core.Cache, error) {
			return xlru.New(cfg, 2)
		}},
	}
}

// TestReplayParallelMatchesSequential is the tentpole equivalence
// property: for the same sharded group, ReplayParallel's merged result
// is bit-identical to a sequential Replay through the locked front door
// — counters, decision counts, churn totals, and every series bucket.
func TestReplayParallelMatchesSequential(t *testing.T) {
	reqs := parallelTrace(6000, 42)
	m := cost.MustModel(2)
	cfg := core.Config{ChunkSize: testK, DiskChunks: 256}
	for _, f := range parallelFactories() {
		for _, shards := range []int{1, 2, 8} {
			g1, err := shard.New(shards, cfg, f.mk)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := Replay(g1, trace.Slice(reqs), m, Options{})
			if err != nil {
				t.Fatal(err)
			}
			g2, err := shard.New(shards, cfg, f.mk)
			if err != nil {
				t.Fatal(err)
			}
			par, err := ReplayParallel(g2, trace.Slice(reqs), m, Options{})
			if err != nil {
				t.Fatal(err)
			}
			label := f.name
			if seq.Total != par.Total {
				t.Errorf("%s/%d shards: Total diverged:\nseq %+v\npar %+v", label, shards, seq.Total, par.Total)
			}
			if seq.Steady != par.Steady {
				t.Errorf("%s/%d shards: Steady diverged:\nseq %+v\npar %+v", label, shards, seq.Steady, par.Steady)
			}
			if seq.Requests != par.Requests || seq.Served != par.Served || seq.Redirected != par.Redirected {
				t.Errorf("%s/%d shards: decisions diverged: seq %d/%d/%d par %d/%d/%d",
					label, shards, seq.Requests, seq.Served, seq.Redirected,
					par.Requests, par.Served, par.Redirected)
			}
			if seq.FilledChunks != par.FilledChunks || seq.EvictedChunks != par.EvictedChunks {
				t.Errorf("%s/%d shards: churn diverged: seq %d/%d par %d/%d",
					label, shards, seq.FilledChunks, seq.EvictedChunks,
					par.FilledChunks, par.EvictedChunks)
			}
			if seq.Algorithm != par.Algorithm {
				t.Errorf("%s/%d shards: Algorithm %q vs %q", label, shards, seq.Algorithm, par.Algorithm)
			}
			if !reflect.DeepEqual(seq.Series.Buckets(), par.Series.Buckets()) {
				t.Errorf("%s/%d shards: series buckets diverged (%d vs %d buckets)",
					label, shards, seq.Series.Len(), par.Series.Len())
			}
		}
	}
}

// TestReplayParallelWorkerCounts: the worker count is a throughput
// knob, never a semantic one — one worker, a non-divisor count, and
// more workers than shards all produce the identical result.
func TestReplayParallelWorkerCounts(t *testing.T) {
	reqs := parallelTrace(3000, 7)
	m := cost.MustModel(2)
	cfg := core.Config{ChunkSize: testK, DiskChunks: 128}
	mk := func() *shard.Group {
		g, err := shard.New(8, cfg, parallelFactories()[0].mk)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	var ref *Result
	for _, workers := range []int{1, 3, 8, 64} {
		res, err := ReplayParallel(mk(), trace.Slice(reqs), m, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.Total != ref.Total || res.Steady != ref.Steady ||
			res.FilledChunks != ref.FilledChunks || res.EvictedChunks != ref.EvictedChunks {
			t.Errorf("workers=%d diverged from workers=1", workers)
		}
	}
}

func TestReplayParallelValidation(t *testing.T) {
	m := cost.MustModel(1)
	cfg := core.Config{ChunkSize: testK, DiskChunks: 64}
	g, err := shard.New(4, cfg, parallelFactories()[0].mk)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayParallel(nil, trace.Slice([]trace.Request{req(0, 1, 0, 0)}), m, Options{}); err == nil {
		t.Error("nil group should fail")
	}
	if _, err := ReplayParallel(g, nil, m, Options{}); err == nil {
		t.Error("empty trace should fail")
	}
	if _, err := ReplayParallel(g, trace.Slice([]trace.Request{req(0, 1, 0, 0)}), m, Options{SteadyFraction: -1}); err == nil {
		t.Error("bad steady fraction should fail")
	}
	if _, err := ReplayParallel(g, trace.Slice([]trace.Request{req(10, 1, 0, 0), req(5, 2, 0, 0)}), m, Options{}); err == nil {
		t.Error("out-of-order trace should fail")
	}
}

// TestReplayParallelProgress: progress must be monotone in the calls a
// single observer sees (the callback is serialized) and must end with
// an exact (total, total) call.
func TestReplayParallelProgress(t *testing.T) {
	reqs := parallelTrace(2000, 3)
	m := cost.MustModel(2)
	cfg := core.Config{ChunkSize: testK, DiskChunks: 128}
	g, err := shard.New(4, cfg, parallelFactories()[1].mk)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	var lastDone, lastTotal int
	_, err = ReplayParallel(g, trace.Slice(reqs), m, Options{
		ProgressEvery: 100,
		Progress: func(done, total int) {
			calls.Add(1)
			lastDone, lastTotal = done, total
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() == 0 {
		t.Fatal("progress never called")
	}
	if lastDone != len(reqs) || lastTotal != len(reqs) {
		t.Errorf("final progress = (%d, %d), want (%d, %d)", lastDone, lastTotal, len(reqs), len(reqs))
	}
}

// TestReplayParallelPartition cross-checks the engine's partition
// against the group's own placement: every request must land on the
// shard whose sub-cache ends up holding (or having seen) its video.
func TestReplayParallelPartition(t *testing.T) {
	reqs := parallelTrace(1000, 11)
	for _, n := range []int{1, 2, 4, 8} {
		for _, r := range reqs {
			s := chunk.ShardOf(r.Video, n)
			if s < 0 || s >= n {
				t.Fatalf("ShardOf(%d, %d) = %d out of range", r.Video, n, s)
			}
		}
	}
}
