package lruq_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/cost"
	_ "videocdn/internal/lruq"
	"videocdn/internal/policy"
	"videocdn/internal/sim"
	"videocdn/internal/trace"
)

// IRM cells of TestLRUMatchesChe: N one-chunk videos with Zipf(s)
// popularity, a disk of frac·N chunks, warm requests before the
// counted ones.
const (
	cheVideos  = 10000
	cheWarm    = 50000
	cheCounted = 300000
	cheK       = 1024
)

// cheTolerance bounds |simulated − Che| per cell: Che's own bias plus
// four standard deviations of the simulated hit ratio. Over 20 seeds
// per cell at 300 000 counted requests, the deviation was at most
// 0.00103 and the mean's distance from Che at most 0.00023, in all
// nine cells (EXPERIMENTS.md, "LRU against Che's approximation").
const cheTolerance = 0.00025 + 4*0.00105

// zipfWeights returns the normalised Zipf(s) popularity of n items,
// most popular first.
func zipfWeights(n int, s float64) []float64 {
	p := make([]float64, n)
	sum := 0.0
	for i := range p {
		p[i] = math.Pow(float64(i+1), -s)
		sum += p[i]
	}
	for i := range p {
		p[i] /= sum
	}
	return p
}

// cheHitRatio is Che's characteristic-time approximation of an LRU
// cache of c items under the independent reference model (Fricker,
// Robert and Roberts, arXiv 1202.3974): the characteristic time T
// solves Σ (1 − e^{−p_i T}) = c, and the hit ratio is
// Σ p_i (1 − e^{−p_i T}).
func cheHitRatio(p []float64, c int) float64 {
	occupancy := func(t float64) float64 {
		sum := 0.0
		for _, pi := range p {
			sum += -math.Expm1(-pi * t)
		}
		return sum
	}
	lo, hi := 0.0, 1.0
	for occupancy(hi) < float64(c) {
		hi *= 2
	}
	for i := 0; i < 200 && hi-lo > 1e-9*hi; i++ {
		if mid := (lo + hi) / 2; occupancy(mid) < float64(c) {
			lo = mid
		} else {
			hi = mid
		}
	}
	t := (lo + hi) / 2
	h := 0.0
	for _, pi := range p {
		h += pi * -math.Expm1(-pi*t)
	}
	return h
}

// irmTrace draws n requests, one per second, each for one whole
// one-chunk video picked independently from p.
func irmTrace(p []float64, n int, seed int64) []trace.Request {
	cum := make([]float64, len(p))
	sum := 0.0
	for i, pi := range p {
		sum += pi
		cum[i] = sum
	}
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]trace.Request, n)
	for i := range reqs {
		v := sort.SearchFloat64s(cum, rng.Float64()*sum)
		reqs[i] = trace.Request{Time: int64(i), Video: chunk.VideoID(v + 1), Start: 0, End: cheK - 1}
	}
	return reqs
}

// replayLRU replays an IRM trace through the registry's "lru" on a
// disk of c chunks, counting from request cheWarm on.
func replayLRU(t *testing.T, p []float64, c int, seed int64) *sim.Result {
	t.Helper()
	cache, err := policy.New("lru", core.Config{ChunkSize: cheK, DiskChunks: c}, nil)
	if err != nil {
		t.Fatal(err)
	}
	reqs := irmTrace(p, cheWarm+cheCounted, seed)
	res, err := sim.Replay(cache, trace.Slice(reqs), cost.MustModel(2), sim.Options{
		BucketSeconds:  1 << 30,
		SteadyFraction: float64(cheWarm) / float64(len(reqs)-1),
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestLRUMatchesChe compares the simulator's always-fill LRU with
// theory: on IRM traces its steady-state hit ratio is Che's
// approximation, in every cell of Zipf s ∈ {0.8, 1.0, 1.2} × C/N ∈
// {1 %, 5 %, 20 %}. The Eq. 2 ledger of the same replay must be the
// always-fill identity, efficiency = 1 − (filled / requested)·C_F,
// exactly.
func TestLRUMatchesChe(t *testing.T) {
	for _, s := range []float64{0.8, 1.0, 1.2} {
		p := zipfWeights(cheVideos, s)
		for _, frac := range []float64{0.01, 0.05, 0.20} {
			c := int(frac * cheVideos)
			res := replayLRU(t, p, c, int64(1000*s)+int64(c))
			st := res.Steady
			if st.Requested != cheCounted*cheK {
				t.Fatalf("s=%v C/N=%v: counted %d bytes, want %d requests of %d", s, frac, st.Requested, cheCounted, cheK)
			}
			if res.Redirected != 0 || st.Redirected != 0 {
				t.Fatalf("s=%v C/N=%v: an always-fill cache redirected %d requests", s, frac, res.Redirected)
			}
			if want := 1 - float64(st.Filled)/float64(st.Requested)*res.Model.CF; res.Efficiency() != want {
				t.Errorf("s=%v C/N=%v: efficiency %v, always-fill ledger gives %v", s, frac, res.Efficiency(), want)
			}
			hit := 1 - float64(st.Filled)/float64(st.Requested)
			che := cheHitRatio(p, c)
			t.Logf("s=%v C/N=%v: simulated %.4f, Che %.4f", s, frac, hit, che)
			if math.Abs(hit-che) > cheTolerance {
				t.Errorf("s=%v C/N=%v: hit ratio %.4f, Che's approximation %.4f (tolerance %.4f)", s, frac, hit, che, cheTolerance)
			}
		}
	}
}
