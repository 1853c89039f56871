// Package metrics provides time-bucketed accounting for cache replay:
// per-window ingress/redirect/hit series (Figure 3's time axis) and
// steady-state summaries that exclude the cache warmup phase, the way
// Section 9 averages "over the second half of the month".
package metrics

import (
	"fmt"
	"sort"

	"videocdn/internal/cost"
)

// Bucket is one time window of accumulated counters.
type Bucket struct {
	// Start is the bucket's start time (inclusive).
	Start int64
	// Counters accumulated over [Start, Start+width).
	Counters cost.Counters
}

// Series accumulates counters into fixed-width time buckets.
type Series struct {
	width   int64
	origin  int64
	started bool
	buckets []cost.Counters
}

// NewSeries creates a series with the given bucket width in seconds.
func NewSeries(widthSeconds int64) (*Series, error) {
	if widthSeconds <= 0 {
		return nil, fmt.Errorf("metrics: bucket width must be positive, got %d", widthSeconds)
	}
	return &Series{width: widthSeconds}, nil
}

// NewSeriesAt creates a series whose bucket origin is pre-anchored to
// the bucket containing anchor, exactly as the first Add(anchor, ...)
// would have done. The parallel replay engine uses it to give every
// shard's series the same origin as the sequential full-trace series,
// so merged buckets align bit-for-bit.
func NewSeriesAt(widthSeconds, anchor int64) (*Series, error) {
	s, err := NewSeries(widthSeconds)
	if err != nil {
		return nil, err
	}
	s.origin = anchor - anchor%widthSeconds
	s.started = true
	return s, nil
}

// Origin returns the anchored bucket origin (meaningful only after the
// first Add or for a NewSeriesAt series).
func (s *Series) Origin() int64 { return s.origin }

// Merge accumulates other's buckets into s element-wise. Both series
// must share the same width and — when both are anchored — the same
// origin; an unanchored (never-added-to) other is a no-op. Because
// bucket counters are integer sums, merging per-shard series produced
// over a partition of one trace yields exactly the series a sequential
// replay of the whole trace would have produced.
func (s *Series) Merge(other *Series) error {
	if other == nil || !other.started {
		return nil
	}
	if other.width != s.width {
		return fmt.Errorf("metrics: merge width mismatch (%d vs %d)", s.width, other.width)
	}
	if !s.started {
		s.origin = other.origin
		s.started = true
	}
	if s.origin != other.origin {
		return fmt.Errorf("metrics: merge origin mismatch (%d vs %d)", s.origin, other.origin)
	}
	for len(s.buckets) < len(other.buckets) {
		s.buckets = append(s.buckets, cost.Counters{})
	}
	for i, c := range other.buckets {
		s.buckets[i].Add(c)
	}
	return nil
}

// Add accumulates counters at time t. The first Add anchors the bucket
// origin; t may not precede it.
func (s *Series) Add(t int64, c cost.Counters) {
	if !s.started {
		s.origin = t - (t % s.width)
		s.started = true
	}
	if t < s.origin {
		panic(fmt.Sprintf("metrics: time %d precedes series origin %d", t, s.origin))
	}
	idx := int((t - s.origin) / s.width)
	for len(s.buckets) <= idx {
		s.buckets = append(s.buckets, cost.Counters{})
	}
	s.buckets[idx].Add(c)
}

// Buckets returns the accumulated windows in time order (including
// empty interior buckets).
func (s *Series) Buckets() []Bucket {
	out := make([]Bucket, len(s.buckets))
	for i, c := range s.buckets {
		out[i] = Bucket{Start: s.origin + int64(i)*s.width, Counters: c}
	}
	return out
}

// Len returns the number of buckets.
func (s *Series) Len() int { return len(s.buckets) }

// Width returns the bucket width in seconds.
func (s *Series) Width() int64 { return s.width }

// Total sums every bucket.
func (s *Series) Total() cost.Counters {
	var t cost.Counters
	for _, c := range s.buckets {
		t.Add(c)
	}
	return t
}

// From sums the buckets whose start time is >= t.
func (s *Series) From(t int64) cost.Counters {
	var out cost.Counters
	for i, c := range s.buckets {
		if s.origin+int64(i)*s.width >= t {
			out.Add(c)
		}
	}
	return out
}

// PeakIngressRatio returns the ingress-to-requested ratio over the n
// busiest hours of day, by requested bytes with ties to the earlier
// hour: the quantity proactive caching is meant to relieve, as fills
// moved to the overnight window stop competing with peak serving.
func (s *Series) PeakIngressRatio(n int) float64 {
	var byHour [24]cost.Counters
	for _, b := range s.Buckets() {
		byHour[(b.Start%86400)/3600].Add(b.Counters)
	}
	hours := make([]int, 24)
	for i := range hours {
		hours[i] = i
	}
	sort.SliceStable(hours, func(i, j int) bool {
		return byHour[hours[i]].Requested > byHour[hours[j]].Requested
	})
	var peak cost.Counters
	for _, h := range hours[:n] {
		peak.Add(byHour[h])
	}
	return peak.IngressRatio()
}
