package workload

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"videocdn/internal/trace"
)

// traceDigest folds every field of every request, in order, into an
// FNV-1a digest: a change to any request changes it.
func traceDigest(reqs []trace.Request) uint64 {
	h := uint64(14695981039346656037)
	for _, r := range reqs {
		for _, v := range [4]uint64{uint64(r.Time), uint64(r.Video), uint64(r.Start), uint64(r.End)} {
			for k := 0; k < 8; k++ {
				h = (h ^ v&0xff) * 1099511628211
				v >>= 8
			}
		}
	}
	return h
}

// TestGenerateGolden pins the generator's output. Every figure in
// experiments_default.txt and every replay digest depends on the exact
// sequence of requests, so a change to how the generator draws or
// samples must leave these digests as they are. The digests were taken
// from the generator that searched its cumulative weights with
// sort.SearchFloat64s, before the guide table replaced that search.
func TestGenerateGolden(t *testing.T) {
	const days = 2
	want := map[string]uint64{
		"africa":       0xea9b710eee60458f,
		"asia":         0x38530e7edea641da,
		"australia":    0x6bd13c5f36bff87d,
		"europe":       0x757f8688ec5e8e87,
		"northamerica": 0x39583e9253b441d7,
		"southamerica": 0x93d391cbc3d69f4b,
	}
	for _, p := range Profiles() {
		reqs := gen(t, p, days)
		if got := traceDigest(reqs); got != want[p.Name] {
			t.Errorf("%s: %d requests, digest %#016x, want %#016x", p.Name, len(reqs), got, want[p.Name])
		}
	}

	// The replay-cafe shape: europe with videos capped at 128 MB, whole
	// and as the merge of eight SplitProfile parts.
	p, err := ProfileByName("europe")
	if err != nil {
		t.Fatal(err)
	}
	p.Seed = 501
	p.MaxVideoMB = 128
	if got, want := traceDigest(gen(t, p, 3)), uint64(0xea4c4dbbbf113b01); got != want {
		t.Errorf("europe, 128 MB cap: digest %#016x, want %#016x", got, want)
	}
	parts, err := SplitProfile(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	traces := make([][]trace.Request, len(parts))
	for i, part := range parts {
		traces[i] = gen(t, part, 3)
	}
	merged := trace.Merge(traces...)
	if got, want := traceDigest(merged), uint64(0x92973fa40766a200); got != want {
		t.Errorf("europe, 8 parts merged: %d requests, digest %#016x, want %#016x", len(merged), got, want)
	}
}

// TestGuideTableMatchesSearch checks the guide-table search against
// sort.SearchFloat64s, clamped to the last index as the generator used
// it, on random cumulative weights with runs of repeated values, spans
// of many magnitudes, and r at 0, at total and at, just below and just
// above every weight.
func TestGuideTableMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(200)
		g := &Generator{weights: make([]float64, n)}
		cum := 0.0
		for i := range g.weights {
			switch inc := math.Exp(rng.NormFloat64() * 6); {
			case i > 0 && rng.Intn(4) == 0:
				// repeated value
			case i > 0 && rng.Intn(8) == 0:
				cum += cum * 1e-17 // rounds back to cum
			default:
				cum += inc
			}
			g.weights[i] = cum
		}
		g.buildGuide()
		total := g.weights[n-1]
		rs := []float64{0, total, math.Nextafter(total, 0)}
		for _, w := range g.weights {
			rs = append(rs, w, math.Nextafter(w, 0), math.Min(math.Nextafter(w, math.Inf(1)), total))
		}
		for k := 0; k < 100; k++ {
			rs = append(rs, rng.Float64()*total)
		}
		for _, r := range rs {
			want := min(sort.SearchFloat64s(g.weights, r), n-1)
			if got := g.search(r); got != want {
				t.Fatalf("trial %d, n=%d: search(%v) = %d, sort.SearchFloat64s gives %d", trial, n, r, got, want)
			}
		}
	}
}

// TestThinningBracketHoldsRate checks the brackets the thinning test
// decides by, for every profile at its own amplitude and at 0 and
// 0.99: rate(t) lies inside the bracket bracketAt picks for t at both
// edges of every slice of several days, one ulp to either side, and at
// random t up to 400 days. On a europe month of thinning tests (a
// Poisson stream of arrivals at maxRate, each with its uniform draw),
// the bracket must decide at least 99 % without rate, and the test it
// stands for must agree with x > rate(t) on every one.
func TestThinningBracketHoldsRate(t *testing.T) {
	const width = float64(SecondsPerDay) / bracketBuckets
	rng := rand.New(rand.NewSource(1))
	for _, p := range Profiles() {
		for _, amp := range []float64{p.DiurnalAmplitude, 0, 0.99} {
			p.DiurnalAmplitude = amp
			g, err := NewGenerator(p)
			if err != nil {
				t.Fatal(err)
			}
			holds := func(tm float64) {
				if b, r := g.bracketAt(tm), g.rate(tm); r < b.lo || r > b.hi {
					t.Fatalf("%s, amplitude %v: rate(%v) = %v outside its bracket [%v, %v]", p.Name, amp, tm, r, b.lo, b.hi)
				}
			}
			for _, day := range []float64{0, 1, 29, 30, 399} {
				for b := 0; b <= bracketBuckets; b++ {
					edge := day*SecondsPerDay + float64(b)*width
					holds(edge)
					holds(math.Nextafter(edge, math.Inf(1)))
					if edge > 0 {
						holds(math.Nextafter(edge, 0))
					}
				}
			}
			for k := 0; k < 100000; k++ {
				holds(rng.Float64() * 400 * SecondsPerDay)
			}
		}
	}

	p, err := ProfileByName("europe")
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(p)
	if err != nil {
		t.Fatal(err)
	}
	maxRate := float64(p.RequestsPerDay) / SecondsPerDay * (1 + p.DiurnalAmplitude)
	tests, undecided := 0, 0
	for tm := rng.ExpFloat64() / maxRate; tm < 30*SecondsPerDay; tm += rng.ExpFloat64() / maxRate {
		b, x := g.bracketAt(tm), rng.Float64()*maxRate
		tests++
		if x > b.lo && x <= b.hi {
			undecided++
		} else if reject := x > b.hi; reject != (x > g.rate(tm)) {
			t.Fatalf("t=%v, x=%v: bracket [%v, %v] rejects=%v, rate %v", tm, x, b.lo, b.hi, reject, g.rate(tm))
		}
	}
	if undecided*100 > tests {
		t.Errorf("the bracket left %d of %d thinning tests on a europe month to rate, over 1 %%", undecided, tests)
	}
	t.Logf("%d of %d thinning tests left to rate", undecided, tests)
}
