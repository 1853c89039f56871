package videocdn_test

import (
	"fmt"
	"strings"

	videocdn "videocdn"
)

// ExampleNewCafe shows the minimal decision loop: construct a cache
// and feed it requests one at a time, as a live server would.
func ExampleNewCafe() {
	cache, err := videocdn.NewCafe(videocdn.DefaultChunkSize, 1<<30, 2, videocdn.CafeOptions{})
	if err != nil {
		panic(err)
	}
	// First sighting of video 1: the disk is empty (warmup), so the
	// request is admitted and its two chunks cache-filled.
	out := cache.HandleRequest(videocdn.Request{
		Time:  0,
		Video: 1,
		Start: 0,
		End:   2*videocdn.DefaultChunkSize - 1,
	})
	fmt.Println(out.Decision, out.FilledChunks)
	// The same range again: pure cache hit.
	out = cache.HandleRequest(videocdn.Request{
		Time:  60,
		Video: 1,
		Start: 0,
		End:   2*videocdn.DefaultChunkSize - 1,
	})
	fmt.Println(out.Decision, out.FilledChunks)
	// Output:
	// serve 2
	// serve 0
}

// ExampleNewCostModel shows the Eq. 4 normalization: only the ratio
// alpha = C_F/C_R matters, with C_F + C_R = 2.
func ExampleNewCostModel() {
	m, err := videocdn.NewCostModel(2)
	if err != nil {
		panic(err)
	}
	fmt.Printf("CF=%.3f CR=%.3f CF+CR=%.0f\n", m.CF, m.CR, m.CF+m.CR)
	// Output:
	// CF=1.333 CR=0.667 CF+CR=2
}

// ExampleReplayChain composes two lines of defense: a constrained edge
// whose redirects land on a deeper parent.
func ExampleReplayChain() {
	edge, err := videocdn.NewCafe(videocdn.DefaultChunkSize, 64<<20, 2, videocdn.CafeOptions{})
	if err != nil {
		panic(err)
	}
	parent, err := videocdn.NewCafe(videocdn.DefaultChunkSize, 256<<20, 1, videocdn.CafeOptions{})
	if err != nil {
		panic(err)
	}
	reqs := []videocdn.Request{
		{Time: 0, Video: 1, Start: 0, End: videocdn.DefaultChunkSize - 1},
		{Time: 10, Video: 1, Start: 0, End: videocdn.DefaultChunkSize - 1},
	}
	res, err := videocdn.ReplayChain([]videocdn.Tier{
		{Name: "edge", Cache: edge, Alpha: 2},
		{Name: "parent", Cache: parent, Alpha: 1},
	}, reqs)
	if err != nil {
		panic(err)
	}
	// Conservation always holds: absorbed at each tier + origin = total.
	sum := res.AbsorbedBytes[0] + res.AbsorbedBytes[1] + res.OriginBytes
	fmt.Println(sum == res.TotalRequested)
	// Output:
	// true
}

// ExampleImportCSVTrace converts an access-log export into requests.
func ExampleImportCSVTrace() {
	csv := "time,video,start,end\n100,7,0,999\n130,7,0,999\n"
	reqs, err := videocdn.ImportCSVTrace(strings.NewReader(csv), videocdn.CSVImportOptions{})
	if err != nil {
		panic(err)
	}
	// Timestamps are rebased to t=0.
	fmt.Println(len(reqs), reqs[0].Time, reqs[1].Time)
	// Output:
	// 2 0 30
}

// ExampleAnalyzeTrace characterizes an access log before replaying it:
// import the CSV export, then read its popularity, churn and size
// profile. Sizes are binned in a log histogram (≤ 2 % error), so the
// median of these 1 MB requests reads as slightly less.
func ExampleAnalyzeTrace() {
	csv := "time,video,bytes\n" +
		"0,1,1000000\n" +
		"60,1,1000000\n" +
		"120,2,1000000\n" +
		"3600,1,1000000\n" +
		"86400,3,1000000\n" +
		"86460,1,1000000\n"
	reqs, err := videocdn.ImportCSVTrace(strings.NewReader(csv), videocdn.CSVImportOptions{})
	if err != nil {
		panic(err)
	}
	rep, err := videocdn.AnalyzeTrace(reqs, videocdn.DefaultChunkSize)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d requests, %d videos over %.2f days\n", rep.Requests, rep.UniqueVideos, rep.Days)
	fmt.Printf("single-hit videos %.0f%%, %.0f new video(s)/day\n",
		100*rep.Popularity.SingleHitShare, rep.Churn.NewVideosPerDay)
	fmt.Println("median request bytes:", rep.Sizes.P50)
	// Output:
	// 6 requests, 3 videos over 1.00 days
	// single-hit videos 67%, 1 new video(s)/day
	// median request bytes: 993303
}

// ExampleReplay measures a cache over a synthetic workload and reads
// the paper's metrics.
func ExampleReplay() {
	profile, err := videocdn.WorkloadProfileByName("asia")
	if err != nil {
		panic(err)
	}
	profile.RequestsPerDay = 300
	profile.CatalogSize = 50
	profile.NewVideosPerDay = 2
	reqs, err := videocdn.GenerateWorkload(profile, 3)
	if err != nil {
		panic(err)
	}
	cache, err := videocdn.NewXLRU(videocdn.DefaultChunkSize, 1<<30, 1)
	if err != nil {
		panic(err)
	}
	res, err := videocdn.Replay(cache, reqs, 1, videocdn.ReplayOptions{})
	if err != nil {
		panic(err)
	}
	// The exact value depends on the seeded workload; the metrics are
	// always within their defined ranges.
	eff := res.Efficiency()
	fmt.Println(res.Algorithm, eff >= -1 && eff <= 1, res.Requests == len(reqs))
	// Output:
	// xlru true true
}
