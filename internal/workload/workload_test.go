package workload

import (
	"math"
	"sort"
	"testing"

	"videocdn/internal/chunk"
	"videocdn/internal/trace"
)

// testProfile is a small, fast profile for unit tests.
func testProfile() Profile {
	p := Profiles()[3] // europe
	p.RequestsPerDay = 2000
	p.CatalogSize = 300
	p.NewVideosPerDay = 20
	return p
}

func gen(t *testing.T, p Profile, days int) []trace.Request {
	t.Helper()
	g, err := NewGenerator(p)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := g.Generate(days)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

func TestDeterminism(t *testing.T) {
	a := gen(t, testProfile(), 2)
	b := gen(t, testProfile(), 2)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSeedChangesTrace(t *testing.T) {
	p := testProfile()
	a := gen(t, p, 1)
	p.Seed++
	b := gen(t, p, 1)
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds should give different traces")
	}
}

func TestRequestsValidAndOrdered(t *testing.T) {
	reqs := gen(t, testProfile(), 3)
	if len(reqs) == 0 {
		t.Fatal("empty trace")
	}
	last := int64(0)
	for i, r := range reqs {
		if err := r.Validate(); err != nil {
			t.Fatalf("request %d invalid: %v", i, err)
		}
		if r.Time < last {
			t.Fatalf("request %d out of order", i)
		}
		last = r.Time
	}
}

func TestVolumeApproximatesProfile(t *testing.T) {
	p := testProfile()
	reqs := gen(t, p, 4)
	perDay := float64(len(reqs)) / 4
	if perDay < 0.7*float64(p.RequestsPerDay) || perDay > 1.3*float64(p.RequestsPerDay) {
		t.Errorf("requests/day = %.0f, want ~%d", perDay, p.RequestsPerDay)
	}
}

func TestZipfSkew(t *testing.T) {
	reqs := gen(t, testProfile(), 3)
	hits := trace.HitCount(reqs)
	counts := make([]int, 0, len(hits))
	total := 0
	for _, c := range hits {
		counts = append(counts, c)
		total += c
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	topN := len(counts) / 10
	if topN == 0 {
		topN = 1
	}
	top := 0
	for _, c := range counts[:topN] {
		top += c
	}
	share := float64(top) / float64(total)
	// The hottest 10% of videos should carry a dominant share under
	// Zipf ~0.9, but not everything (the tail must be heavy).
	if share < 0.4 || share > 0.98 {
		t.Errorf("top-10%% share = %.2f, want within (0.4, 0.98)", share)
	}
}

func TestDiurnalVariation(t *testing.T) {
	p := testProfile()
	p.RequestsPerDay = 8000
	reqs := gen(t, p, 4)
	// Bucket by hour-of-day across all days; peak/trough ratio should
	// reflect the amplitude.
	var byHour [24]int
	for _, r := range reqs {
		byHour[(r.Time%SecondsPerDay)/3600]++
	}
	minC, maxC := byHour[0], byHour[0]
	for _, c := range byHour[1:] {
		if c < minC {
			minC = c
		}
		if c > maxC {
			maxC = c
		}
	}
	ratio := float64(maxC) / float64(minC)
	// Amplitude 0.6 -> ideal ratio (1.6/0.4) = 4.
	if ratio < 1.8 {
		t.Errorf("peak/trough ratio = %.2f, diurnal pattern too flat", ratio)
	}
}

func TestCatalogChurnIntroducesNewVideos(t *testing.T) {
	p := testProfile()
	reqs := gen(t, p, 6)
	mid := int64(3 * SecondsPerDay)
	early := make(map[chunk.VideoID]struct{})
	for _, r := range reqs {
		if r.Time < mid {
			early[r.Video] = struct{}{}
		}
	}
	fresh := 0
	for _, r := range reqs {
		if r.Time >= mid {
			if _, ok := early[r.Video]; !ok {
				fresh++
			}
		}
	}
	if fresh == 0 {
		t.Error("churn should produce requests for videos unseen in the first half")
	}
}

func TestPrefixBias(t *testing.T) {
	reqs := gen(t, testProfile(), 2)
	const k = chunk.DefaultSize
	var first, tenth int
	for _, r := range reqs {
		c0, c1 := r.ChunkRange(k)
		if c0 == 0 {
			first++
		}
		if c0 <= 10 && 10 <= c1 {
			tenth++
		}
	}
	if first <= tenth {
		t.Errorf("chunk 0 requested %d times vs chunk 10 %d: expected strong prefix bias", first, tenth)
	}
}

func TestSixProfilesDistinct(t *testing.T) {
	ps := Profiles()
	if len(ps) != 6 {
		t.Fatalf("want 6 profiles, got %d", len(ps))
	}
	names := map[string]bool{}
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", p.Name, err)
		}
		if names[p.Name] {
			t.Errorf("duplicate profile name %s", p.Name)
		}
		names[p.Name] = true
	}
	// Volume ordering used in the Figure 7 narrative.
	sa, _ := ProfileByName("southamerica")
	asia, _ := ProfileByName("asia")
	if sa.RequestsPerDay <= asia.RequestsPerDay {
		t.Error("South America should be busier than Asia")
	}
	if sa.CatalogSize <= asia.CatalogSize {
		t.Error("South America should be more diverse than Asia")
	}
}

func TestProfileByNameUnknown(t *testing.T) {
	if _, err := ProfileByName("atlantis"); err == nil {
		t.Error("unknown profile should error")
	}
}

func TestValidationErrors(t *testing.T) {
	bads := []func(*Profile){
		func(p *Profile) { p.RequestsPerDay = 0 },
		func(p *Profile) { p.CatalogSize = 0 },
		func(p *Profile) { p.ZipfExponent = 0 },
		func(p *Profile) { p.DiurnalAmplitude = 1 },
		func(p *Profile) { p.MeanVideoMB = 0 },
		func(p *Profile) { p.MaxVideoMB = p.MinVideoMB - 1 },
		func(p *Profile) { p.SeekProb = 1.5 },
		func(p *Profile) { p.MeanWatchFrac = 0 },
		func(p *Profile) { p.PopularityHalfLifeDays = 0 },
		func(p *Profile) { p.NewVideosPerDay = -1 },
	}
	for i, mutate := range bads {
		p := testProfile()
		mutate(&p)
		if _, err := NewGenerator(p); err == nil {
			t.Errorf("mutation %d should fail validation", i)
		}
	}
}

func TestGenerateFuncStreamsIdentically(t *testing.T) {
	p := testProfile()
	g1, err := NewGenerator(p)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := g1.Generate(2)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewGenerator(p)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []trace.Request
	if err := g2.GenerateFunc(2, func(r trace.Request) error {
		streamed = append(streamed, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(batch) {
		t.Fatalf("streamed %d vs batch %d", len(streamed), len(batch))
	}
	for i := range batch {
		if streamed[i] != batch[i] {
			t.Fatalf("request %d differs", i)
		}
	}
}

func TestGenerateFuncStopsOnEmitError(t *testing.T) {
	g, err := NewGenerator(testProfile())
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	sentinel := errSentinel("stop")
	err = g.GenerateFunc(1, func(trace.Request) error {
		count++
		if count == 5 {
			return sentinel
		}
		return nil
	})
	if err != sentinel {
		t.Errorf("err = %v, want sentinel", err)
	}
	if count != 5 {
		t.Errorf("emitted %d, want exactly 5", count)
	}
}

type errSentinel string

func (e errSentinel) Error() string { return string(e) }

func TestGenerateRejectsBadDays(t *testing.T) {
	g, err := NewGenerator(testProfile())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Generate(0); err == nil {
		t.Error("days=0 should fail")
	}
}

func TestVideoSizesWithinBounds(t *testing.T) {
	p := testProfile()
	g, err := NewGenerator(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		s := g.videoSize()
		if s < int64(p.MinVideoMB*(1<<20)) || s > int64(p.MaxVideoMB*(1<<20)) {
			t.Fatalf("size %d outside bounds", s)
		}
	}
}

func TestSummarize(t *testing.T) {
	reqs := gen(t, testProfile(), 2)
	s := Summarize(reqs)
	if s.Requests != len(reqs) {
		t.Errorf("Requests = %d", s.Requests)
	}
	if s.UniqueVideos == 0 || s.TotalBytes == 0 || s.MeanReqBytes == 0 {
		t.Errorf("stats look empty: %+v", s)
	}
	if math.Abs(s.Days-2) > 0.3 {
		t.Errorf("Days = %v, want ~2", s.Days)
	}
	if got := Summarize(nil); got != (Stats{}) {
		t.Error("empty trace should give zero stats")
	}
}

// BenchmarkGenerate builds the replay-cafe workload's trace: europe
// with videos capped at 128 MB, split into eight SplitProfile parts,
// each generated for 30 days, then merged.
func BenchmarkGenerate(b *testing.B) {
	p, err := ProfileByName("europe")
	if err != nil {
		b.Fatal(err)
	}
	p.MaxVideoMB = 128
	parts, err := SplitProfile(p, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	n := 0
	for i := 0; i < b.N; i++ {
		traces := make([][]trace.Request, len(parts))
		for i, part := range parts {
			g, err := NewGenerator(part)
			if err != nil {
				b.Fatal(err)
			}
			if traces[i], err = g.Generate(30); err != nil {
				b.Fatal(err)
			}
		}
		n += len(trace.Merge(traces...))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/req")
}
