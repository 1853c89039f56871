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

// writeColumnar writes reqs into a fresh columnar directory and opens
// it.
func writeColumnar(t *testing.T, reqs []trace.Request) *trace.Dir {
	t.Helper()
	dir := t.TempDir()
	dw, err := trace.CreateDir(dir, trace.DirConfig{BlockRequests: 256})
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
// matrix: replaying a columnar trace directory must produce results
// bit-identical to replaying the materialized slice, for {cafe,xlru}
// on one cache and on {1,8}-shard groups, the groups in both the
// sequential and parallel engines.
func TestStreamingReplayMatrix(t *testing.T) {
	reqs := parallelTrace(6000, 99)
	m := cost.MustModel(2)
	cfg := core.Config{ChunkSize: testK, DiskChunks: 256}
	d := writeColumnar(t, reqs)
	for _, f := range parallelFactories() {
		one := func() core.Cache {
			c, err := f.mk(0, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		mem, err := Replay(one(), trace.Slice(reqs), m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		dir, err := Replay(one(), d, m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, f.name, mem, dir)
		for _, groupShards := range []int{1, 8} {
			label := fmt.Sprintf("%s/G%d", f.name, groupShards)
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
			// Streaming: one cursor, and one filtered cursor per shard.
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
