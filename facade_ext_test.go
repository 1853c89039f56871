package videocdn_test

import (
	"bytes"
	"strings"
	"testing"

	videocdn "videocdn"
)

func stringsReader(s string) *strings.Reader { return strings.NewReader(s) }

func TestFacadeReplayChain(t *testing.T) {
	reqs := smallTrace(t)
	edge, err := videocdn.NewCache("cafe", videocdn.CacheOptions{DiskBytes: 128 * mb, Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	parent, err := videocdn.NewCache("cafe", videocdn.CacheOptions{DiskBytes: 512 * mb, Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := videocdn.ReplayChain([]videocdn.Tier{
		{Name: "edge", Cache: edge, Alpha: 2},
		{Name: "parent", Cache: parent, Alpha: 1},
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.AbsorbedBytes[0] + res.AbsorbedBytes[1] + res.OriginBytes; got != res.TotalRequested {
		t.Errorf("conservation violated: %d != %d", got, res.TotalRequested)
	}
}

func TestFacadeReplayFanIn(t *testing.T) {
	reqs := smallTrace(t)
	mk := func(alpha float64, bytes int64) videocdn.Cache {
		c, err := videocdn.NewCache("cafe", videocdn.CacheOptions{DiskBytes: bytes, Alpha: alpha})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	res, err := videocdn.ReplayFanIn(
		[]videocdn.Tier{
			{Name: "e0", Cache: mk(2, 128*mb), Alpha: 2},
			{Name: "e1", Cache: mk(2, 128*mb), Alpha: 2},
		},
		videocdn.Tier{Name: "parent", Cache: mk(1, 512*mb), Alpha: 1},
		reqs,
		func(r videocdn.Request) int { return int(r.Video) % 2 },
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tiers) != 3 {
		t.Fatalf("tiers = %d", len(res.Tiers))
	}
	sum := res.AbsorbedBytes[0] + res.AbsorbedBytes[1] + res.AbsorbedBytes[2] + res.OriginBytes
	if sum != res.TotalRequested {
		t.Error("conservation violated")
	}
}

func TestFacadeAnalyzeTrace(t *testing.T) {
	reqs := smallTrace(t)
	rep, err := videocdn.AnalyzeTrace(reqs, videocdn.DefaultChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != len(reqs) || rep.UniqueVideos == 0 {
		t.Errorf("report looks empty: %+v", rep)
	}
	if _, err := videocdn.AnalyzeTrace(nil, videocdn.DefaultChunkSize); err == nil {
		t.Error("empty trace should fail")
	}
}

func TestFacadeCafeStateRoundTrip(t *testing.T) {
	reqs := smallTrace(t)
	c, err := videocdn.NewCache("cafe", videocdn.CacheOptions{DiskBytes: 256 * mb, Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs[:len(reqs)/2] {
		c.HandleRequest(r)
	}
	var buf bytes.Buffer
	if err := videocdn.SaveCafeState(c, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := videocdn.LoadCafeState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != c.Len() {
		t.Errorf("restored %d chunks, want %d", got.Len(), c.Len())
	}
	// Non-cafe caches refuse politely.
	x, err := videocdn.NewCache("xlru", videocdn.CacheOptions{DiskBytes: 256 * mb, Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := videocdn.SaveCafeState(x, &buf); err == nil {
		t.Error("xlru snapshot should be refused")
	}
}

func TestFacadeAlphaControlSpec(t *testing.T) {
	reqs := smallTrace(t)
	opt := videocdn.CacheOptions{DiskBytes: 256 * mb, Alpha: 1}
	c, err := videocdn.NewCache("alphactl:inner=cafe,target_ingress=0.05", opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := videocdn.Replay(c, videocdn.SliceTrace(reqs), 2, videocdn.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != len(reqs) {
		t.Errorf("replayed %d", res.Requests)
	}
	if _, err := videocdn.NewCache("alphactl:inner=cafe,target_ingress=0", opt); err == nil {
		t.Error("zero target should fail")
	}
	if _, err := videocdn.NewCache("alphactl:inner=lru", opt); err == nil {
		t.Error("an inner without a tunable alpha should fail")
	}
}

func TestFacadeWriteLimitSpec(t *testing.T) {
	reqs := smallTrace(t)
	opt := videocdn.CacheOptions{DiskBytes: 256 * mb, Alpha: 1}
	c, err := videocdn.NewCache("writelimit:inner=cafe,per_window=50,window=3600", opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := videocdn.Replay(c, videocdn.SliceTrace(reqs), 1, videocdn.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The hard cap: the budget's windows are anchored at the first
	// fill, so one hourly series bucket can straddle at most two
	// budget windows — fills per bucket are bounded by 2x the budget.
	for _, b := range res.Series.Buckets() {
		if b.Counters.Filled > 2*50*videocdn.DefaultChunkSize {
			t.Errorf("bucket at %d filled %d bytes, over 2x budget", b.Start, b.Counters.Filled)
		}
	}
	if _, err := videocdn.NewCache("writelimit:inner=cafe,per_window=0", opt); err == nil {
		t.Error("empty budget should fail")
	}
	if _, err := videocdn.NewCache("writelimit:inner=lru", opt); err == nil {
		t.Error("an inner without a fill gate should fail")
	}
}

func TestFacadeImportCSVTrace(t *testing.T) {
	in := "time,video,bytes\n0,1,1000\n5,2,2000\n"
	reqs, err := videocdn.ImportCSVTrace(stringsReader(in), videocdn.CSVImportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 2 || reqs[1].Video != 2 || reqs[1].End != 1999 {
		t.Errorf("imported %v", reqs)
	}
}

func TestFacadeMergeTraces(t *testing.T) {
	a := []videocdn.Request{{Time: 0, Video: 1, Start: 0, End: 1}}
	b := []videocdn.Request{{Time: 1, Video: 2, Start: 0, End: 1}}
	got := videocdn.MergeTraces(b, a)
	if len(got) != 2 || got[0].Video != 1 {
		t.Errorf("merged %v", got)
	}
}

func TestFacadeReplayWithPrefetch(t *testing.T) {
	reqs := smallTrace(t)
	c, err := videocdn.NewCache("cafe", videocdn.CacheOptions{DiskBytes: 256 * mb, Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Each video ends at its furthest requested byte.
	sizes := videocdn.MapCatalog{}
	for _, r := range reqs {
		sizes[r.Video] = max(sizes[r.Video], r.End+1)
	}
	res, err := videocdn.ReplayWithPrefetch(c, reqs, 1, videocdn.PrefetchConfig{
		StartHour: 0, EndHour: 0, ChunksPerHour: 20,
	}, videocdn.DefaultChunkSize, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != len(reqs) {
		t.Errorf("replayed %d, want %d", res.Requests, len(reqs))
	}
	if res.Stats.Accepted > 0 && res.Stats.PrefetchedBytes == 0 {
		t.Error("accepted prefetches without byte accounting")
	}
	if _, err := videocdn.ReplayWithPrefetch(c, reqs, -1, videocdn.PrefetchConfig{ChunksPerHour: 1}, videocdn.DefaultChunkSize, sizes); err == nil {
		t.Error("bad alpha should fail")
	}
	x, err := videocdn.NewCache("xlru", videocdn.CacheOptions{DiskBytes: 256 * mb, Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := videocdn.ReplayWithPrefetch(x, reqs, 1, videocdn.PrefetchConfig{ChunksPerHour: 1}, videocdn.DefaultChunkSize, sizes); err == nil {
		t.Error("xlru does not prefetch")
	}
}
