package sim

import (
	"fmt"
	"reflect"
	"testing"

	"videocdn/internal/core"
	"videocdn/internal/cost"
	"videocdn/internal/shard"
	"videocdn/internal/trace"
)

// writeColumnar writes reqs into a fresh columnar directory with the
// given shard fan-out and opens it.
func writeColumnar(t *testing.T, reqs []trace.Request, shards int) *trace.Dir {
	t.Helper()
	dir := t.TempDir()
	dw, err := trace.CreateDir(dir, trace.DirConfig{Shards: shards, BlockRequests: 256})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		if err := dw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}
	d, err := trace.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// requireIdentical asserts two replay results are bit-identical across
// every field the paper's metrics derive from.
func requireIdentical(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if want.Total != got.Total {
		t.Errorf("%s: Total diverged:\nwant %+v\ngot  %+v", label, want.Total, got.Total)
	}
	if want.Steady != got.Steady {
		t.Errorf("%s: Steady diverged:\nwant %+v\ngot  %+v", label, want.Steady, got.Steady)
	}
	if want.Requests != got.Requests || want.Served != got.Served || want.Redirected != got.Redirected {
		t.Errorf("%s: decisions diverged: want %d/%d/%d got %d/%d/%d",
			label, want.Requests, want.Served, want.Redirected,
			got.Requests, got.Served, got.Redirected)
	}
	if want.FilledChunks != got.FilledChunks || want.EvictedChunks != got.EvictedChunks {
		t.Errorf("%s: churn diverged: want %d/%d got %d/%d",
			label, want.FilledChunks, want.EvictedChunks, got.FilledChunks, got.EvictedChunks)
	}
	if want.Model != got.Model {
		t.Errorf("%s: Model diverged", label)
	}
	if !reflect.DeepEqual(want.Series.Buckets(), got.Series.Buckets()) {
		t.Errorf("%s: series buckets diverged (%d vs %d buckets)",
			label, want.Series.Len(), got.Series.Len())
	}
	if want.Efficiency() != got.Efficiency() {
		t.Errorf("%s: efficiency diverged: %v vs %v", label, want.Efficiency(), got.Efficiency())
	}
}

// TestStreamingReplayMatrix is the streaming-vs-in-memory equivalence
// matrix: replaying a columnar trace directory through per-shard
// cursors must produce results bit-identical to replaying the
// materialized slice, across {1,8} trace shards x {1,8} group shards x
// {cafe,xlru}, in both the sequential and parallel engines. The
// off-diagonal cells exercise shard-count adaptation: trace shards <
// group shards takes the filter-cursor path, trace shards > group
// shards the exact-merge path.
func TestStreamingReplayMatrix(t *testing.T) {
	reqs := parallelTrace(6000, 99)
	m := cost.MustModel(2)
	cfg := core.Config{ChunkSize: testK, DiskChunks: 256}
	for _, f := range parallelFactories() {
		for _, traceShards := range []int{1, 8} {
			d := writeColumnar(t, reqs, traceShards)
			for _, groupShards := range []int{1, 8} {
				label := fmt.Sprintf("%s/T%d/G%d", f.name, traceShards, groupShards)
				mkGroup := func() *shard.Group {
					g, err := shard.New(groupShards, cfg, f.mk)
					if err != nil {
						t.Fatal(err)
					}
					return g
				}
				// In-memory reference.
				memSeq, err := Replay(mkGroup(), trace.Slice(reqs), m, Options{})
				if err != nil {
					t.Fatal(err)
				}
				memPar, err := ReplayParallel(mkGroup(), trace.Slice(reqs), m, Options{})
				if err != nil {
					t.Fatal(err)
				}
				// Streaming: sequential merge and per-shard cursors.
				dirSeq, err := Replay(mkGroup(), d, m, Options{})
				if err != nil {
					t.Fatal(err)
				}
				dirPar, err := ReplayParallel(mkGroup(), d, m, Options{})
				if err != nil {
					t.Fatal(err)
				}
				requireIdentical(t, label+"/seq", memSeq, dirSeq)
				requireIdentical(t, label+"/par", memPar, dirPar)
				// Both engines agree with each other too.
				requireIdentical(t, label+"/engines", memSeq, memPar)
				requireIdentical(t, label+"/dir-engines", dirSeq, dirPar)
			}
		}
	}
}

// TestStreamingReplayAsymmetricShards pins the two adaptation paths at
// specific shard counts: 2 trace shards feeding an 8-shard group
// (filter cursors) and 8 trace shards feeding a 2-shard group (merge
// cursors).
func TestStreamingReplayAsymmetricShards(t *testing.T) {
	reqs := parallelTrace(4000, 5)
	m := cost.MustModel(2)
	cfg := core.Config{ChunkSize: testK, DiskChunks: 128}
	f := parallelFactories()[0] // cafe
	for _, tc := range []struct{ traceShards, groupShards int }{
		{2, 8}, // filter path
		{8, 2}, // merge path
	} {
		d := writeColumnar(t, reqs, tc.traceShards)
		g1, err := shard.New(tc.groupShards, cfg, f.mk)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ReplayParallel(g1, trace.Slice(reqs), m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		g2, err := shard.New(tc.groupShards, cfg, f.mk)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReplayParallel(g2, d, m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, "asymmetric", want, got)
	}
}
