package videocdn_test

import (
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

// fixedCache returns one outcome for every request: a policy that
// breaks the outcome invariants.
type fixedCache struct{ out videocdn.Outcome }

func (c fixedCache) HandleRequest(videocdn.Request) videocdn.Outcome { return c.out }
func (fixedCache) Contains(videocdn.ChunkID) bool                    { return false }
func (fixedCache) Len() int                                          { return 0 }
func (fixedCache) Name() string                                      { return "fixed" }

// TestFacadeReplaysRejectBrokenInput: the multi-tier replay runs on the
// simulator's one replay loop, so it inherits its checks and returns an
// error for a trace out of time order or an outcome that breaks the
// accounting invariants, instead of panicking inside the cache or
// accepting the numbers.
func TestFacadeReplaysRejectBrokenInput(t *testing.T) {
	const k = videocdn.DefaultChunkSize
	at := func(times ...int64) []videocdn.Request {
		var reqs []videocdn.Request
		for i, tm := range times {
			reqs = append(reqs, videocdn.Request{Time: tm, Video: videocdn.VideoID(i + 1), Start: 0, End: k - 1})
		}
		return reqs
	}
	ordered, shuffled := at(0, 10, 20, 30), at(0, 10, 5, 30)
	mk := func(spec string) videocdn.Cache {
		c, err := videocdn.NewCache(spec, videocdn.CacheOptions{DiskBytes: 64 * mb, Alpha: 1})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	redirectWithFill := fixedCache{videocdn.Outcome{Decision: videocdn.Redirect, FilledChunks: 1, FilledBytes: k}}
	idsMismatch := fixedCache{videocdn.Outcome{Decision: videocdn.Serve, FilledChunks: 2, FilledBytes: 2 * k,
		FilledIDs: []videocdn.ChunkID{{Video: 1}}}}
	inputs := []struct {
		name  string
		cache func() videocdn.Cache
		reqs  []videocdn.Request
	}{
		{"out of order (lru)", func() videocdn.Cache { return mk("lru") }, shuffled},
		{"out of order (cafe)", func() videocdn.Cache { return mk("cafe") }, shuffled},
		{"redirect with fill", func() videocdn.Cache { return redirectWithFill }, ordered},
		{"FilledIDs mismatch", func() videocdn.Cache { return idsMismatch }, ordered},
	}
	for _, in := range inputs {
		t.Run("ReplayChain/"+in.name, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panicked: %v", p)
				}
			}()
			if _, err := videocdn.ReplayChain([]videocdn.Tier{{Name: "edge", Cache: in.cache(), Alpha: 1}}, in.reqs); err == nil {
				t.Fatal("accepted")
			} else {
				t.Log(err)
			}
		})
	}
}
