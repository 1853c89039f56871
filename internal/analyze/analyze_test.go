package analyze

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"videocdn/internal/chunk"
	"videocdn/internal/trace"
	"videocdn/internal/workload"
)

const testK = 1024

func req(t int64, v chunk.VideoID, start, end int64) trace.Request {
	return trace.Request{Time: t, Video: v, Start: start, End: end}
}

// analyzeSlice analyzes an in-memory trace the way the tools and the
// facade do: streaming, over trace.Slice.
func analyzeSlice(reqs []trace.Request, chunkSize int64) (*Report, error) {
	return AnalyzeSource(trace.Slice(reqs), chunkSize)
}

func TestAnalyzeValidation(t *testing.T) {
	if _, err := analyzeSlice(nil, testK); err == nil {
		t.Error("empty trace should fail")
	}
	if _, err := analyzeSlice([]trace.Request{req(0, 1, 0, 1)}, 0); err == nil {
		t.Error("zero chunk size should fail")
	}
}

func TestBasicCounts(t *testing.T) {
	reqs := []trace.Request{
		req(0, 1, 0, 99),
		req(3600, 2, 0, 199),
		req(86400, 1, 0, 99),
	}
	r, err := analyzeSlice(reqs, testK)
	if err != nil {
		t.Fatal(err)
	}
	if r.Requests != 3 || r.UniqueVideos != 2 {
		t.Errorf("counts: %+v", r)
	}
	if r.TotalBytes != 100+200+100 {
		t.Errorf("TotalBytes = %d", r.TotalBytes)
	}
	if math.Abs(r.Days-1) > 0.01 {
		t.Errorf("Days = %v", r.Days)
	}
}

// A perfect Zipf(1) trace should fit s close to 1.
func TestZipfFit(t *testing.T) {
	var reqs []trace.Request
	tm := int64(0)
	for rank := 1; rank <= 50; rank++ {
		n := 1000 / rank // count ∝ 1/rank
		for i := 0; i < n; i++ {
			reqs = append(reqs, req(tm, chunk.VideoID(rank), 0, 999))
			tm++
		}
	}
	r, err := analyzeSlice(reqs, testK)
	if err != nil {
		t.Fatal(err)
	}
	if r.Popularity.ZipfExponent < 0.8 || r.Popularity.ZipfExponent > 1.2 {
		t.Errorf("fitted zipf = %v, want ~1", r.Popularity.ZipfExponent)
	}
	if r.Popularity.Top1Share <= 0 || r.Popularity.Top10Share < r.Popularity.Top1Share {
		t.Errorf("shares: %+v", r.Popularity)
	}
}

func TestSingleHitShare(t *testing.T) {
	reqs := []trace.Request{
		req(0, 1, 0, 1), req(1, 1, 0, 1), // video 1 twice
		req(2, 2, 0, 1), // singles
		req(3, 3, 0, 1),
		req(4, 4, 0, 1),
	}
	r, err := analyzeSlice(reqs, testK)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Popularity.SingleHitShare-0.75) > 1e-9 {
		t.Errorf("SingleHitShare = %v, want 0.75", r.Popularity.SingleHitShare)
	}
}

func TestDiurnalPeak(t *testing.T) {
	var reqs []trace.Request
	tm := int64(0)
	// Load concentrated at hour 18.
	for day := 0; day < 3; day++ {
		for i := 0; i < 100; i++ {
			reqs = append(reqs, req(int64(day)*86400+18*3600+int64(i), 1, 0, 1))
		}
		reqs = append(reqs, req(int64(day)*86400+20*3600, 2, 0, 1))
	}
	_ = tm
	r, err := analyzeSlice(reqs, testK)
	if err != nil {
		t.Fatal(err)
	}
	if r.Diurnal.PeakHour != 18 {
		t.Errorf("PeakHour = %d, want 18", r.Diurnal.PeakHour)
	}
	if !math.IsInf(r.Diurnal.PeakTroughRatio, 1) {
		t.Errorf("empty hours should give infinite ratio, got %v", r.Diurnal.PeakTroughRatio)
	}
}

func TestPrefixBiasDetected(t *testing.T) {
	var reqs []trace.Request
	// Video of 100 KB; 80% of requests read the first 10%, 20% read all.
	const size = 100 * testK
	tm := int64(0)
	for i := 0; i < 80; i++ {
		reqs = append(reqs, req(tm, 1, 0, size/10-1))
		tm++
	}
	for i := 0; i < 20; i++ {
		reqs = append(reqs, req(tm, 1, 0, size-1))
		tm++
	}
	r, err := analyzeSlice(reqs, testK)
	if err != nil {
		t.Fatal(err)
	}
	if r.IntraFile.PrefixShare[0] <= r.IntraFile.PrefixShare[9] {
		t.Errorf("prefix share not front-loaded: %v", r.IntraFile.PrefixShare)
	}
	if r.IntraFile.FirstChunkRatio < 2 {
		t.Errorf("FirstChunkRatio = %v, want >= 2 (80+20 vs 20)", r.IntraFile.FirstChunkRatio)
	}
}

func TestSizePercentiles(t *testing.T) {
	var reqs []trace.Request
	for i := 1; i <= 100; i++ {
		reqs = append(reqs, req(int64(i), chunk.VideoID(i), 0, int64(i)*1000-1))
	}
	r, err := analyzeSlice(reqs, testK)
	if err != nil {
		t.Fatal(err)
	}
	if r.Sizes.P50 > r.Sizes.P90 || r.Sizes.P90 > r.Sizes.P99 {
		t.Errorf("percentiles not ordered: %+v", r.Sizes)
	}
	if math.Abs(r.Sizes.MeanBytes-50500) > 1 {
		t.Errorf("MeanBytes = %v, want 50500", r.Sizes.MeanBytes)
	}
}

func TestChurn(t *testing.T) {
	reqs := []trace.Request{
		req(0, 1, 0, 1),
		req(10, 2, 0, 1),
		// Day 1: one new video (3), one old (1).
		req(86400+5, 3, 0, 1),
		req(86400+10, 1, 0, 1),
		// Day 2: one new video (4).
		req(2*86400+5, 4, 0, 1),
	}
	r, err := analyzeSlice(reqs, testK)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Churn.NewVideosPerDay-1) > 1e-9 {
		t.Errorf("NewVideosPerDay = %v, want 1", r.Churn.NewVideosPerDay)
	}
	// After day 0: 3 requests, 2 to same-day-new videos.
	if math.Abs(r.Churn.FreshRequestShare-2.0/3.0) > 1e-9 {
		t.Errorf("FreshRequestShare = %v, want 2/3", r.Churn.FreshRequestShare)
	}
}

// The synthetic workload should exhibit all the stylized facts the
// generator promises — this closes the loop between workload and
// analyze.
func TestSyntheticWorkloadCharacteristics(t *testing.T) {
	p, err := workload.ProfileByName("europe")
	if err != nil {
		t.Fatal(err)
	}
	p.RequestsPerDay = 3000
	p.CatalogSize = 500
	p.NewVideosPerDay = 25
	g, err := workload.NewGenerator(p)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := g.Generate(6)
	if err != nil {
		t.Fatal(err)
	}
	r, err := analyzeSlice(reqs, chunk.DefaultSize)
	if err != nil {
		t.Fatal(err)
	}
	if r.Popularity.ZipfExponent < 0.3 {
		t.Errorf("zipf fit %v too flat", r.Popularity.ZipfExponent)
	}
	if r.Popularity.SingleHitShare < 0.02 {
		t.Errorf("single-hit share %v: tail not heavy enough", r.Popularity.SingleHitShare)
	}
	if r.Diurnal.PeakTroughRatio < 1.5 {
		t.Errorf("peak/trough %v: diurnal too flat", r.Diurnal.PeakTroughRatio)
	}
	if r.IntraFile.PrefixShare[0] <= r.IntraFile.PrefixShare[9] {
		t.Errorf("no prefix bias: %v", r.IntraFile.PrefixShare)
	}
	if r.Churn.NewVideosPerDay < 5 {
		t.Errorf("churn %v videos/day too low", r.Churn.NewVideosPerDay)
	}
}

func TestPrint(t *testing.T) {
	reqs := []trace.Request{req(0, 1, 0, 100), req(86400, 2, 0, 100)}
	r, err := analyzeSlice(reqs, testK)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	r.Print(&sb)
	for _, want := range []string{"requests:", "popularity:", "diurnal:", "churn:"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("Print output missing %q", want)
		}
	}
}

// AnalyzeSource over a columnar directory must match the exact
// materializing analyzer on the slice, exactly for every count-based field and within
// histogram tolerance for size percentiles.
func TestAnalyzeSourceMatchesAnalyze(t *testing.T) {
	p := workload.Profiles()[0]
	p.RequestsPerDay = 4000
	p.CatalogSize = 500
	p.NewVideosPerDay = 20
	g, err := workload.NewGenerator(p)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := g.Generate(3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := analyzeExact(append([]trace.Request(nil), reqs...), chunk.DefaultSize)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	dw, err := trace.CreateDir(dir, trace.DirConfig{Shards: 4, BlockRequests: 512})
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
	got, err := AnalyzeSource(d, chunk.DefaultSize)
	if err != nil {
		t.Fatal(err)
	}

	if got.Requests != want.Requests || got.UniqueVideos != want.UniqueVideos ||
		got.TotalBytes != want.TotalBytes || got.Days != want.Days {
		t.Fatalf("headline fields differ:\ngot  %+v\nwant %+v", got, want)
	}
	if got.Popularity != want.Popularity {
		t.Fatalf("popularity differs:\ngot  %+v\nwant %+v", got.Popularity, want.Popularity)
	}
	if got.Diurnal != want.Diurnal {
		t.Fatalf("diurnal differs:\ngot  %+v\nwant %+v", got.Diurnal, want.Diurnal)
	}
	if got.IntraFile != want.IntraFile {
		t.Fatalf("intra-file differs:\ngot  %+v\nwant %+v", got.IntraFile, want.IntraFile)
	}
	if got.Churn != want.Churn {
		t.Fatalf("churn differs:\ngot  %+v\nwant %+v", got.Churn, want.Churn)
	}
	if got.Sizes.MeanBytes != want.Sizes.MeanBytes {
		t.Fatalf("mean bytes: got %v want %v", got.Sizes.MeanBytes, want.Sizes.MeanBytes)
	}
	// Percentiles come from a log histogram with 32 sub-buckets per
	// octave: allow ~2.5% relative error.
	checkQ := func(name string, got, want int64) {
		t.Helper()
		if want == 0 {
			if got != 0 {
				t.Fatalf("%s: got %d want 0", name, got)
			}
			return
		}
		rel := math.Abs(float64(got)-float64(want)) / float64(want)
		if rel > 0.025 {
			t.Fatalf("%s: got %d want %d (rel err %.3f)", name, got, want, rel)
		}
	}
	checkQ("p50", got.Sizes.P50, want.Sizes.P50)
	checkQ("p90", got.Sizes.P90, want.Sizes.P90)
	checkQ("p99", got.Sizes.P99, want.Sizes.P99)
}

func TestAnalyzeSourceValidation(t *testing.T) {
	if _, err := AnalyzeSource(nil, testK); err == nil {
		t.Error("nil source should fail")
	}
	if _, err := AnalyzeSource(trace.Slice(nil), testK); err == nil {
		t.Error("empty source should fail")
	}
	if _, err := AnalyzeSource(trace.Slice([]trace.Request{req(0, 1, 0, 1)}), 0); err == nil {
		t.Error("zero chunk size should fail")
	}
}

// analyzeExact is the materializing analyzer AnalyzeSource replaced:
// it holds the whole trace and sorts every request size, so its
// percentiles are exact. It stays as the reference
// TestAnalyzeSourceMatchesAnalyze compares the streaming report with.
func analyzeExact(reqs []trace.Request, chunkSize int64) (*Report, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("analyze: empty trace")
	}
	if chunkSize <= 0 {
		return nil, fmt.Errorf("analyze: chunk size must be positive")
	}
	r := &Report{Requests: len(reqs)}
	hits := make(map[chunk.VideoID]int)
	maxEnd := make(map[chunk.VideoID]int64)
	firstSeen := make(map[chunk.VideoID]int64)
	start := reqs[0].Time
	end := reqs[len(reqs)-1].Time
	r.Days = float64(end-start) / 86400

	sizes := make([]int64, 0, len(reqs))
	for _, req := range reqs {
		hits[req.Video]++
		r.TotalBytes += req.Bytes()
		sizes = append(sizes, req.Bytes())
		if req.End > maxEnd[req.Video] {
			maxEnd[req.Video] = req.End
		}
		if _, ok := firstSeen[req.Video]; !ok {
			firstSeen[req.Video] = req.Time
		}
	}
	r.UniqueVideos = len(hits)
	r.Popularity = popularity(hits, len(reqs))
	r.Diurnal = diurnal(reqs)
	r.IntraFile = intraFile(reqs, maxEnd, chunkSize)
	r.Sizes = sizeReport(sizes)
	r.Churn = churn(reqs, firstSeen, start)
	return r, nil
}

func diurnal(reqs []trace.Request) DiurnalReport {
	var rep DiurnalReport
	for _, r := range reqs {
		rep.ByHour[(r.Time%86400)/3600]++
	}
	minC, maxC := rep.ByHour[0], rep.ByHour[0]
	for h, c := range rep.ByHour {
		if c > maxC {
			maxC = c
			rep.PeakHour = h
		}
		if c < minC {
			minC = c
		}
	}
	if minC > 0 {
		rep.PeakTroughRatio = float64(maxC) / float64(minC)
	} else {
		rep.PeakTroughRatio = math.Inf(1)
	}
	return rep
}

func intraFile(reqs []trace.Request, maxEnd map[chunk.VideoID]int64, chunkSize int64) IntraFileReport {
	var rep IntraFileReport
	var first, median float64
	total := 0
	for _, r := range reqs {
		extent := maxEnd[r.Video] + 1
		if extent <= 0 {
			continue
		}
		d0 := int(10 * r.Start / extent)
		d1 := int(10 * r.End / extent)
		if d0 > 9 {
			d0 = 9
		}
		if d1 > 9 {
			d1 = 9
		}
		for d := d0; d <= d1; d++ {
			rep.PrefixShare[d]++
		}
		total++
		// First-chunk vs mid-file chunk touch counts.
		c0, c1 := r.ChunkRange(chunkSize)
		if c0 == 0 {
			first++
		}
		midChunk := uint32(extent / 2 / chunkSize)
		if c0 <= midChunk && midChunk <= c1 {
			median++
		}
	}
	if total > 0 {
		sum := 0.0
		for _, v := range rep.PrefixShare {
			sum += v
		}
		for i := range rep.PrefixShare {
			rep.PrefixShare[i] /= sum
		}
	}
	if median > 0 {
		rep.FirstChunkRatio = first / median
	} else if first > 0 {
		rep.FirstChunkRatio = math.Inf(1)
	}
	return rep
}

func sizeReport(sizes []int64) SizeReport {
	var rep SizeReport
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	var sum int64
	for _, s := range sizes {
		sum += s
	}
	rep.MeanBytes = float64(sum) / float64(len(sizes))
	q := func(p float64) int64 {
		i := int(p * float64(len(sizes)-1))
		return sizes[i]
	}
	rep.P50, rep.P90, rep.P99 = q(0.5), q(0.9), q(0.99)
	return rep
}

func churn(reqs []trace.Request, firstSeen map[chunk.VideoID]int64, start int64) ChurnReport {
	var rep ChurnReport
	newByDay := make(map[int64]int)
	for _, t := range firstSeen {
		newByDay[(t-start)/86400]++
	}
	lastDay := (reqs[len(reqs)-1].Time - start) / 86400
	if lastDay >= 1 {
		totalNew := 0
		for d, n := range newByDay {
			if d >= 1 {
				totalNew += n
			}
		}
		rep.NewVideosPerDay = float64(totalNew) / float64(lastDay)
	}
	fresh, later := 0, 0
	for _, r := range reqs {
		day := (r.Time - start) / 86400
		if day < 1 {
			continue
		}
		later++
		if (firstSeen[r.Video]-start)/86400 == day {
			fresh++
		}
	}
	if later > 0 {
		rep.FreshRequestShare = float64(fresh) / float64(later)
	}
	return rep
}
