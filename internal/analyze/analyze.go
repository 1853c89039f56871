// Package analyze characterizes request traces along the dimensions
// the paper's algorithms are sensitive to: video popularity skew
// (Zipf exponent, head/tail shares), diurnal load shape, intra-file
// chunk popularity (prefix bias), request size distribution, and
// catalog churn (never-seen-before videos).
//
// It serves two purposes: validating that synthetic workloads resemble
// production video traffic (the tests in internal/workload build on
// it), and letting a user of this library check whether their own
// trace falls in the regime the paper's results cover.
package analyze

import (
	"fmt"
	"io"
	"math"
	"sort"

	"videocdn/internal/chunk"
	"videocdn/internal/trace"
)

// Report is the full characterization of one trace.
type Report struct {
	Requests     int
	UniqueVideos int
	TotalBytes   int64
	Days         float64

	Popularity PopularityReport
	Diurnal    DiurnalReport
	IntraFile  IntraFileReport
	Sizes      SizeReport
	Churn      ChurnReport
}

// PopularityReport describes the video popularity distribution.
type PopularityReport struct {
	// ZipfExponent is the fitted s of count ∝ 1/rank^s over the head
	// of the ranking (least-squares in log-log space). On IRM traces of
	// 350 000 requests over 10 000 Zipf(s) videos, 20 seeds per s, it
	// read s − 0.0052, s − 0.0068 and s − 0.0112 on average at s = 0.8,
	// 1.0 and 1.2, with a standard deviation of 0.0025 at each: fitting
	// sorted sampled counts is biased low, more so for steeper s
	// (TestZipfFitIRM).
	ZipfExponent float64
	// Top1Share / Top10Share are the request shares of the hottest 1%
	// and 10% of videos.
	Top1Share, Top10Share float64
	// SingleHitShare is the fraction of videos requested exactly once
	// — the paper's heavy tail ("files on the borderline of caching
	// ... have very few accesses").
	SingleHitShare float64
}

// DiurnalReport describes the hour-of-day load shape.
type DiurnalReport struct {
	// ByHour is the request count per hour-of-day (0-23).
	ByHour [24]int
	// PeakHour is the busiest hour-of-day.
	PeakHour int
	// PeakTroughRatio is max/min hourly volume.
	PeakTroughRatio float64
}

// IntraFileReport describes chunk-position popularity within files.
type IntraFileReport struct {
	// PrefixShare[i] is the fraction of requests covering the i-th
	// decile of their video's observed extent; index 0 is the file
	// head. Prefix-biased workloads are front-loaded.
	PrefixShare [10]float64
	// FirstChunkRatio is requests touching chunk 0 divided by
	// requests touching the chunk at the observed median position.
	FirstChunkRatio float64
}

// SizeReport describes request byte lengths.
type SizeReport struct {
	MeanBytes     float64
	P50, P90, P99 int64
}

// ChurnReport describes catalog dynamics.
type ChurnReport struct {
	// NewVideosPerDay is the average number of videos first seen on
	// each day after the first.
	NewVideosPerDay float64
	// FreshRequestShare is the fraction of requests (after day 1)
	// that target a video first seen that same day.
	FreshRequestShare float64
}

// AnalyzeSource characterizes a streaming trace source at the given
// chunk size without materializing it. It makes two cursor passes over
// the source (the intra-file report needs each video's observed extent
// before requests can be bucketed by decile), so memory is bounded by
// per-video state — O(unique videos), not O(requests). Size
// percentiles are computed from a logarithmic histogram and are
// approximate to within ~2% relative error. An in-memory trace is
// analyzed the same way, through trace.Slice.
func AnalyzeSource(src trace.Source, chunkSize int64) (*Report, error) {
	if src == nil {
		return nil, fmt.Errorf("analyze: nil source")
	}
	if chunkSize <= 0 {
		return nil, fmt.Errorf("analyze: chunk size must be positive")
	}
	a := newStreamAnalyzer(chunkSize)

	cur, err := src.Cursor()
	if err != nil {
		return nil, err
	}
	var req trace.Request
	for {
		ok, err := cur.Next(&req)
		if err != nil {
			cur.Close()
			return nil, err
		}
		if !ok {
			break
		}
		a.observe(req)
	}
	if err := cur.Close(); err != nil {
		return nil, err
	}
	if a.requests == 0 {
		return nil, fmt.Errorf("analyze: empty trace")
	}

	// Second pass: intra-file positions against the now-known extents.
	cur, err = src.Cursor()
	if err != nil {
		return nil, err
	}
	for {
		ok, err := cur.Next(&req)
		if err != nil {
			cur.Close()
			return nil, err
		}
		if !ok {
			break
		}
		a.observeIntraFile(req)
	}
	if err := cur.Close(); err != nil {
		return nil, err
	}
	return a.report(), nil
}

// streamAnalyzer accumulates the report over one time-ordered pass
// (observe) plus a second pass for intra-file positions
// (observeIntraFile).
type streamAnalyzer struct {
	chunkSize int64
	requests  int
	total     int64 // bytes
	start     int64
	end       int64

	hits      map[chunk.VideoID]int
	maxEnd    map[chunk.VideoID]int64
	firstSeen map[chunk.VideoID]int64

	byHour [24]int
	sizes  sizeHist

	// churn accumulators — valid because observe sees requests in time
	// order, so firstSeen[v] is always set before a later request to v.
	fresh, later int

	// intra-file accumulators (second pass).
	prefix        [10]float64
	intraTotal    int
	first, median float64
}

func newStreamAnalyzer(chunkSize int64) *streamAnalyzer {
	return &streamAnalyzer{
		chunkSize: chunkSize,
		hits:      make(map[chunk.VideoID]int),
		maxEnd:    make(map[chunk.VideoID]int64),
		firstSeen: make(map[chunk.VideoID]int64),
	}
}

func (a *streamAnalyzer) observe(r trace.Request) {
	if a.requests == 0 {
		a.start = r.Time
	}
	a.end = r.Time
	a.requests++
	a.hits[r.Video]++
	b := r.Bytes()
	a.total += b
	a.sizes.add(b)
	a.byHour[(r.Time%86400)/3600]++
	if r.End > a.maxEnd[r.Video] {
		a.maxEnd[r.Video] = r.End
	}
	if _, ok := a.firstSeen[r.Video]; !ok {
		a.firstSeen[r.Video] = r.Time
	}
	if day := (r.Time - a.start) / 86400; day >= 1 {
		a.later++
		if (a.firstSeen[r.Video]-a.start)/86400 == day {
			a.fresh++
		}
	}
}

func (a *streamAnalyzer) observeIntraFile(r trace.Request) {
	extent := a.maxEnd[r.Video] + 1
	if extent <= 0 {
		return
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
		a.prefix[d]++
	}
	a.intraTotal++
	c0, c1 := r.ChunkRange(a.chunkSize)
	if c0 == 0 {
		a.first++
	}
	midChunk := uint32(extent / 2 / a.chunkSize)
	if c0 <= midChunk && midChunk <= c1 {
		a.median++
	}
}

func (a *streamAnalyzer) report() *Report {
	r := &Report{
		Requests:     a.requests,
		UniqueVideos: len(a.hits),
		TotalBytes:   a.total,
		Days:         float64(a.end-a.start) / 86400,
	}
	r.Popularity = popularity(a.hits, a.requests)

	r.Diurnal.ByHour = a.byHour
	minC, maxC := a.byHour[0], a.byHour[0]
	for h, c := range a.byHour {
		if c > maxC {
			maxC = c
			r.Diurnal.PeakHour = h
		}
		if c < minC {
			minC = c
		}
	}
	if minC > 0 {
		r.Diurnal.PeakTroughRatio = float64(maxC) / float64(minC)
	} else {
		r.Diurnal.PeakTroughRatio = math.Inf(1)
	}

	if a.intraTotal > 0 {
		sum := 0.0
		for _, v := range a.prefix {
			sum += v
		}
		for i := range a.prefix {
			r.IntraFile.PrefixShare[i] = a.prefix[i] / sum
		}
	}
	if a.median > 0 {
		r.IntraFile.FirstChunkRatio = a.first / a.median
	} else if a.first > 0 {
		r.IntraFile.FirstChunkRatio = math.Inf(1)
	}

	r.Sizes.MeanBytes = float64(a.total) / float64(a.requests)
	r.Sizes.P50 = a.sizes.quantile(0.5)
	r.Sizes.P90 = a.sizes.quantile(0.9)
	r.Sizes.P99 = a.sizes.quantile(0.99)

	lastDay := (a.end - a.start) / 86400
	if lastDay >= 1 {
		totalNew := 0
		for _, t := range a.firstSeen {
			if (t-a.start)/86400 >= 1 {
				totalNew++
			}
		}
		r.Churn.NewVideosPerDay = float64(totalNew) / float64(lastDay)
	}
	if a.later > 0 {
		r.Churn.FreshRequestShare = float64(a.fresh) / float64(a.later)
	}
	return r
}

// sizeHist is a fixed-size logarithmic histogram for request byte
// lengths: 32 sub-buckets per power of two give quantiles with at most
// ~2% relative error at O(1) memory, regardless of trace length.
type sizeHist struct {
	buckets [64 * sizeHistSub]int64
	zero    int64 // zero-length requests (shouldn't occur, but be safe)
	count   int64
}

const sizeHistSub = 32

func (h *sizeHist) add(b int64) {
	h.count++
	if b <= 0 {
		h.zero++
		return
	}
	i := int(math.Log2(float64(b)) * sizeHistSub)
	if i < 0 {
		i = 0
	}
	if i >= len(h.buckets) {
		i = len(h.buckets) - 1
	}
	h.buckets[i]++
}

// quantile returns the approximate p-quantile as the geometric midpoint
// of the bucket containing it.
func (h *sizeHist) quantile(p float64) int64 {
	if h.count == 0 {
		return 0
	}
	target := int64(p * float64(h.count-1))
	seen := h.zero
	if target < seen {
		return 0
	}
	for i, c := range h.buckets {
		seen += c
		if target < seen {
			return int64(math.Exp2((float64(i) + 0.5) / sizeHistSub))
		}
	}
	return int64(math.Exp2(float64(len(h.buckets)) / sizeHistSub))
}

func popularity(hits map[chunk.VideoID]int, total int) PopularityReport {
	counts := make([]int, 0, len(hits))
	single := 0
	for _, c := range hits {
		counts = append(counts, c)
		if c == 1 {
			single++
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	var rep PopularityReport
	rep.SingleHitShare = float64(single) / float64(len(counts))
	share := func(frac float64) float64 {
		n := int(math.Ceil(frac * float64(len(counts))))
		if n < 1 {
			n = 1
		}
		s := 0
		for _, c := range counts[:n] {
			s += c
		}
		return float64(s) / float64(total)
	}
	rep.Top1Share = share(0.01)
	rep.Top10Share = share(0.10)
	// Least-squares fit of log(count) = a - s*log(rank) over the head
	// (ranks with count >= 2, capped at the top 20% to avoid the
	// noisy tail).
	head := len(counts) / 5
	if head < 2 {
		head = min2(2, len(counts))
	}
	var sx, sy, sxx, sxy float64
	n := 0
	for i := 0; i < head && counts[i] >= 2; i++ {
		x := math.Log(float64(i + 1))
		y := math.Log(float64(counts[i]))
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		n++
	}
	if n >= 2 && sxx*float64(n)-sx*sx != 0 {
		rep.ZipfExponent = -(float64(n)*sxy - sx*sy) / (float64(n)*sxx - sx*sx)
	}
	return rep
}

func min2(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Print renders the report as a human-readable summary.
func (r *Report) Print(w io.Writer) {
	fmt.Fprintf(w, "requests:        %d over %.1f days (%.1f GB requested)\n",
		r.Requests, r.Days, float64(r.TotalBytes)/(1<<30))
	fmt.Fprintf(w, "unique videos:   %d\n", r.UniqueVideos)
	fmt.Fprintf(w, "popularity:      zipf s=%.2f, top1%%=%.1f%%, top10%%=%.1f%%, single-hit videos=%.1f%%\n",
		r.Popularity.ZipfExponent, 100*r.Popularity.Top1Share,
		100*r.Popularity.Top10Share, 100*r.Popularity.SingleHitShare)
	fmt.Fprintf(w, "diurnal:         peak hour %d, peak/trough %.2f\n",
		r.Diurnal.PeakHour, r.Diurnal.PeakTroughRatio)
	fmt.Fprintf(w, "intra-file:      first-decile share %.1f%%, chunk0/mid ratio %.1f\n",
		100*r.IntraFile.PrefixShare[0], r.IntraFile.FirstChunkRatio)
	fmt.Fprintf(w, "request sizes:   mean %.1f MB, p50 %.1f MB, p90 %.1f MB, p99 %.1f MB\n",
		r.Sizes.MeanBytes/(1<<20), float64(r.Sizes.P50)/(1<<20),
		float64(r.Sizes.P90)/(1<<20), float64(r.Sizes.P99)/(1<<20))
	fmt.Fprintf(w, "churn:           %.1f new videos/day, %.1f%% of requests hit same-day-new videos\n",
		r.Churn.NewVideosPerDay, 100*r.Churn.FreshRequestShare)
}
