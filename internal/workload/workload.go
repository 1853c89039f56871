// Package workload synthesizes video-CDN request traces with the
// stylized properties the paper's algorithms are sensitive to. It
// substitutes for the anonymized production logs (six servers, one
// month, 2013) used in Section 9, which are not publicly available.
//
// The generator reproduces, per server profile:
//
//   - Zipf-like video popularity with a long heavy tail (Section 3
//     notes borderline-cached files have very few accesses),
//   - heavy-tailed video sizes (lognormal, clamped),
//   - prefix-biased intra-file access: most sessions start at byte 0
//     and watch a heavy-tailed fraction, so early chunks are hottest
//     (Section 2, "diverse intra-file popularities"),
//   - a diurnal request rate with per-region phase (Figure 3's daily
//     ingress/redirect oscillation),
//   - daily catalog churn: new videos appear every day and popularity
//     decays with age, producing the never-seen-before requests that
//     separate Psychic from the online caches (Section 9.2), and
//   - per-region differences in request volume and catalog diversity
//     (Figure 7's spread across the six servers).
//
// Everything is driven by a single seed: the same profile and seed
// always produce the identical trace.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"videocdn/internal/chunk"
	"videocdn/internal/trace"
)

// SecondsPerDay is one day of trace time.
const SecondsPerDay = 86400

// Profile describes one simulated cache server's request stream.
type Profile struct {
	// Name identifies the profile ("europe", ...).
	Name string
	// Seed drives all randomness for the profile.
	Seed int64
	// RequestsPerDay is the average daily request volume.
	RequestsPerDay int
	// CatalogSize is the number of videos existing at trace start.
	CatalogSize int
	// NewVideosPerDay is the catalog churn rate.
	NewVideosPerDay int
	// ZipfExponent is the popularity skew s in weight ∝ 1/rank^s.
	ZipfExponent float64
	// PopularityHalfLifeDays controls how fast a video's popularity
	// decays with its age.
	PopularityHalfLifeDays float64
	// DiurnalAmplitude in [0,1) scales the daily rate oscillation.
	DiurnalAmplitude float64
	// PeakHour is the local hour (0-24) of peak request rate.
	PeakHour float64
	// MeanVideoMB and SigmaVideo parameterize the lognormal video
	// size distribution; sizes are clamped to [MinVideoMB, MaxVideoMB].
	MeanVideoMB, SigmaVideo float64
	MinVideoMB, MaxVideoMB  float64
	// SeekProb is the probability a session starts mid-file rather
	// than at byte zero.
	SeekProb float64
	// MeanWatchFrac is the mean fraction of the remaining video a
	// session watches (exponentially distributed, capped at 1).
	MeanWatchFrac float64
	// IDOffset shifts every video ID the profile mints, namespacing
	// the catalogs of profiles generated in parallel so they can never
	// alias (SplitProfile gives each part a disjoint 24-bit ID space).
	IDOffset chunk.VideoID
}

// Validate reports profile errors.
func (p Profile) Validate() error {
	switch {
	case p.RequestsPerDay <= 0:
		return fmt.Errorf("workload %q: RequestsPerDay must be positive", p.Name)
	case p.CatalogSize <= 0:
		return fmt.Errorf("workload %q: CatalogSize must be positive", p.Name)
	case p.ZipfExponent <= 0:
		return fmt.Errorf("workload %q: ZipfExponent must be positive", p.Name)
	case p.DiurnalAmplitude < 0 || p.DiurnalAmplitude >= 1:
		return fmt.Errorf("workload %q: DiurnalAmplitude must be in [0,1)", p.Name)
	case p.MeanVideoMB <= 0 || p.MinVideoMB <= 0 || p.MaxVideoMB < p.MinVideoMB:
		return fmt.Errorf("workload %q: invalid video size parameters", p.Name)
	case p.SeekProb < 0 || p.SeekProb > 1:
		return fmt.Errorf("workload %q: SeekProb must be in [0,1]", p.Name)
	case p.MeanWatchFrac <= 0 || p.MeanWatchFrac > 1:
		return fmt.Errorf("workload %q: MeanWatchFrac must be in (0,1]", p.Name)
	case p.PopularityHalfLifeDays <= 0:
		return fmt.Errorf("workload %q: PopularityHalfLifeDays must be positive", p.Name)
	case p.NewVideosPerDay < 0:
		return fmt.Errorf("workload %q: NewVideosPerDay must be non-negative", p.Name)
	}
	return nil
}

// Profiles returns the six world-region profiles used throughout the
// experiments, mirroring the paper's six servers. They differ in
// request volume and catalog diversity: the South American server is
// the busiest and most diverse (lowest cache efficiency for a fixed
// disk), the Asian one the most limited (highest efficiency) —
// Figure 7's spread.
func Profiles() []Profile {
	base := Profile{
		NewVideosPerDay:        60,
		PopularityHalfLifeDays: 6,
		DiurnalAmplitude:       0.6,
		MeanVideoMB:            90,
		SigmaVideo:             1.0,
		MinVideoMB:             4,
		MaxVideoMB:             1024,
		SeekProb:               0.15,
		MeanWatchFrac:          0.4,
	}
	mk := func(name string, seed int64, reqPerDay, catalog, churn int, zipf, peak float64) Profile {
		p := base
		p.Name = name
		p.Seed = seed
		p.RequestsPerDay = reqPerDay
		p.CatalogSize = catalog
		p.NewVideosPerDay = churn
		p.ZipfExponent = zipf
		p.PeakHour = peak
		return p
	}
	return []Profile{
		mk("africa", 11, 14000, 2500, 40, 0.95, 20),
		mk("asia", 12, 16000, 2000, 30, 1.05, 14),
		mk("australia", 13, 20000, 3500, 50, 0.90, 11),
		mk("europe", 14, 28000, 5000, 70, 0.90, 19),
		mk("northamerica", 15, 34000, 7000, 90, 0.85, 2),
		mk("southamerica", 16, 40000, 9000, 120, 0.80, 23),
	}
}

// ProfileByName finds a named profile among Profiles.
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown profile %q", name)
}

// video is one catalog entry.
type video struct {
	id       chunk.VideoID
	size     int64   // bytes
	zipf     float64 // rank^ZipfExponent, rank 1 being the hottest
	birthDay float64 // day the video appeared (can be negative)
}

// Generator produces a request trace for one profile.
type Generator struct {
	p       Profile
	rng     *rand.Rand
	videos  []video
	nextID  chunk.VideoID
	weights []float64 // cumulative weights, rebuilt daily
	// guide[b] is the first i with int(weights[i]·scale) ≥ b, where
	// scale = len(weights)/total: where search starts its scan.
	guide []int
	scale float64
	// brackets[b] bounds rate over the b-th of bracketBuckets slices
	// of the day, so that most thinning tests skip rate's cosine.
	brackets [bracketBuckets]bracket
}

// bracketBuckets is how many slices of the day NewGenerator brackets
// the diurnal rate over.
const bracketBuckets = 1024

// bracket holds lo ≤ rate(t) ≤ hi for every t in its slice of the day.
type bracket struct{ lo, hi float64 }

// NewGenerator builds a generator; the catalog is seeded with
// CatalogSize videos whose ages are spread over the past ~60 days.
func NewGenerator(p Profile) (*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{p: p, rng: rand.New(rand.NewSource(p.Seed)), nextID: p.IDOffset + 1}
	for i := 0; i < p.CatalogSize; i++ {
		g.addVideo(-g.rng.Float64() * 60)
	}
	g.buildBrackets()
	return g, nil
}

// buildBrackets fills brackets with rate at each slice's midpoint,
// widened by |rate'| ≤ base·A·2π/SecondsPerDay times half the slice's
// width, plus 1e-9·base. That slack is far above the rounding of rate
// (a few ulps of base, plus a phase error of about 2π·d·2⁻⁵² radians on
// day d, under 1e-10 for the first 10⁵ days) and of bracketAt's slice
// index, so every t that bracketAt maps to a slice has rate(t) inside
// its bracket, and the test decides as rate would.
func (g *Generator) buildBrackets() {
	const width = float64(SecondsPerDay) / bracketBuckets
	base := float64(g.p.RequestsPerDay) / SecondsPerDay
	slack := base*g.p.DiurnalAmplitude*2*math.Pi/SecondsPerDay*width/2 + 1e-9*base
	for b := range g.brackets {
		mid := g.rate((float64(b) + 0.5) * width)
		g.brackets[b] = bracket{mid - slack, mid + slack}
	}
}

// bracketAt returns the bracket of t's slice of the day.
func (g *Generator) bracketAt(t float64) *bracket {
	return &g.brackets[uint(int(t*(float64(bracketBuckets)/SecondsPerDay)))%bracketBuckets]
}

// addVideo appends a new catalog entry born on the given day.
func (g *Generator) addVideo(birthDay float64) {
	// Rank is drawn uniformly over the current catalog size, so a new
	// video can land anywhere in the popularity spectrum — some
	// uploads are instant hits.
	rank := 1 + g.rng.Float64()*float64(len(g.videos)+1)
	size := g.videoSize()
	g.videos = append(g.videos, video{
		id:       g.nextID,
		size:     size,
		zipf:     math.Pow(rank, g.p.ZipfExponent),
		birthDay: birthDay,
	})
	g.nextID++
}

// SizeOf returns the size in bytes of a video the generator has
// minted, ok=false for any other ID: the catalog an origin would serve
// for its trace.
func (g *Generator) SizeOf(v chunk.VideoID) (int64, bool) {
	i := int64(v) - int64(g.p.IDOffset) - 1
	if i < 0 || i >= int64(len(g.videos)) {
		return 0, false
	}
	return g.videos[i].size, true
}

// videoSize draws a lognormal size in bytes.
func (g *Generator) videoSize() int64 {
	mu := math.Log(g.p.MeanVideoMB)
	mb := math.Exp(mu + g.p.SigmaVideo*g.rng.NormFloat64())
	if mb < g.p.MinVideoMB {
		mb = g.p.MinVideoMB
	}
	if mb > g.p.MaxVideoMB {
		mb = g.p.MaxVideoMB
	}
	return int64(mb * (1 << 20))
}

// rebuildWeights recomputes the cumulative popularity weights for
// sampling on the given day, and the guide table over them.
func (g *Generator) rebuildWeights(day float64) {
	g.weights = g.weights[:0]
	cum := 0.0
	for _, v := range g.videos {
		age := day - v.birthDay
		if age < 0 {
			age = 0
		}
		decay := math.Exp(-age*math.Ln2/g.p.PopularityHalfLifeDays) + 0.05
		cum += decay / v.zipf
		g.weights = append(g.weights, cum)
	}
	g.buildGuide()
}

// buildGuide rebuilds the guide table over the current weights.
func (g *Generator) buildGuide() {
	g.scale = float64(len(g.weights)) / g.weights[len(g.weights)-1]
	g.guide = g.guide[:0]
	for i, w := range g.weights {
		for b := int(w * g.scale); len(g.guide) <= b; {
			g.guide = append(g.guide, i)
		}
	}
}

// search returns the first i with weights[i] ≥ r, clamped to the last
// index: what sort.SearchFloat64s finds, in O(1) steps on average.
// Every i before guide[int(r·scale)] has int(weights[i]·scale) <
// int(r·scale), so weights[i] < r, and the scan can start there. No r
// in [0, total] indexes past the guide, whose last bucket is total's.
func (g *Generator) search(r float64) int {
	last := len(g.weights) - 1
	i := g.guide[int(r*g.scale)]
	for i < last && g.weights[i] < r {
		i++
	}
	return i
}

// pickVideo samples a video from the current weights.
func (g *Generator) pickVideo() *video {
	r := g.rng.Float64() * g.weights[len(g.weights)-1]
	return &g.videos[g.search(r)]
}

// rate returns the instantaneous request rate (req/s) at trace time t.
func (g *Generator) rate(t float64) float64 {
	base := float64(g.p.RequestsPerDay) / SecondsPerDay
	phase := 2 * math.Pi * (t/SecondsPerDay - g.p.PeakHour/24)
	return base * (1 + g.p.DiurnalAmplitude*math.Cos(phase))
}

// Generate produces the full request trace for the given number of
// days. Requests are in non-decreasing time order starting at t=0.
func (g *Generator) Generate(days int) ([]trace.Request, error) {
	// Sized for the mean volume plus 1/16 (about 20 Poisson σ at a
	// month of one europe part), so the slice is allocated once; past
	// 1<<24 requests append grows it.
	n := min(float64(days)*float64(g.p.RequestsPerDay)*17/16, 1<<24)
	reqs := make([]trace.Request, 0, max(int(n), 0))
	err := g.GenerateFunc(days, func(r trace.Request) error {
		reqs = append(reqs, r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return reqs, nil
}

// GenerateFunc streams the trace to emit one request at a time,
// without materializing it in memory — for month-scale traces written
// straight to disk (cmd/tracegen pipes this into a trace.Writer).
// Generation stops at the first emit error, which is returned.
func (g *Generator) GenerateFunc(days int, emit func(trace.Request) error) error {
	if days <= 0 {
		return fmt.Errorf("workload: days must be positive, got %d", days)
	}
	end := float64(days) * SecondsPerDay
	maxRate := float64(g.p.RequestsPerDay) / SecondsPerDay * (1 + g.p.DiurnalAmplitude)

	t := 0.0
	day := -1
	for {
		// Thinned Poisson arrivals under the diurnal rate.
		t += g.rng.ExpFloat64() / maxRate
		if t >= end {
			break
		}
		if d := int(t / SecondsPerDay); d != day {
			// Day boundary: churn in new videos, refresh weights.
			if day >= 0 {
				for i := 0; i < g.p.NewVideosPerDay; i++ {
					g.addVideo(float64(d) - g.rng.Float64())
				}
			}
			day = d
			g.rebuildWeights(float64(d) + 0.5)
		}
		// Thinning: reject when x > rate(t). The bracket of t's slice
		// of the day decides all but the x inside it, about 0.2 % of
		// them, without rate's cosine.
		if b, x := g.bracketAt(t), g.rng.Float64()*maxRate; x > b.hi || x > b.lo && x > g.rate(t) {
			continue
		}
		v := g.pickVideo()
		start := int64(0)
		if g.rng.Float64() < g.p.SeekProb {
			start = g.rng.Int63n(v.size)
		}
		remaining := v.size - start
		frac := g.rng.ExpFloat64() * g.p.MeanWatchFrac
		if frac > 1 {
			frac = 1
		}
		watched := int64(frac * float64(remaining))
		if watched < 1 {
			watched = 1
		}
		if err := emit(trace.Request{
			Time:  int64(t),
			Video: v.id,
			Start: start,
			End:   start + watched - 1,
		}); err != nil {
			return err
		}
	}
	return nil
}

// Stats summarizes a generated trace for sanity checks and reports.
type Stats struct {
	Requests       int
	UniqueVideos   int
	TotalBytes     int64
	MeanReqBytes   float64
	Days           float64
	RequestsPerDay float64
}

// Summarize computes Stats for a trace.
func Summarize(reqs []trace.Request) Stats {
	var s Stats
	if len(reqs) == 0 {
		return s
	}
	vids := make(map[chunk.VideoID]struct{})
	for _, r := range reqs {
		vids[r.Video] = struct{}{}
		s.TotalBytes += r.Bytes()
	}
	s.Requests = len(reqs)
	s.UniqueVideos = len(vids)
	s.MeanReqBytes = float64(s.TotalBytes) / float64(s.Requests)
	s.Days = float64(reqs[len(reqs)-1].Time-reqs[0].Time) / SecondsPerDay
	if s.Days > 0 {
		s.RequestsPerDay = float64(s.Requests) / s.Days
	}
	return s
}
