package videocdn_test

// The benchmark harness regenerates every figure of the paper's
// evaluation at a reduced scale (internal/experiments drives the same
// code the `experiments` CLI runs at full scale) and measures the raw
// per-request throughput of each cache algorithm.
//
//	go test -bench=. -benchmem
//
// BenchmarkFigN corresponds to the paper's Figure N; run with -v to
// see the regenerated rows (b.Logf output).

import (
	"io"
	"testing"

	videocdn "videocdn"
	"videocdn/internal/experiments"
)

// benchScale keeps each figure iteration around a second.
func benchScale() experiments.Scale {
	sc := experiments.SmallScale()
	sc.Factor = 0.03
	sc.Days = 6
	sc.DiskChunks = 1024
	sc.Fig2Files = 30
	sc.Fig2MaxReqs = 80
	return sc
}

// BenchmarkFig2 regenerates Figure 2: Psychic vs the LP-relaxed
// Optimal bound on down-sampled two-day traces (Section 9.1).
func BenchmarkFig2(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig2(sc, []float64{2}, []string{"europe"})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logResult(b, func(w io.Writer) { res.Print(w) })
		}
	}
}

// BenchmarkFig3 regenerates Figure 3: the time series of ingress,
// redirection and efficiency for xLRU/Cafe/Psychic at alpha=2.
func BenchmarkFig3(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3(sc)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			xl := res.Steady[experiments.AlgoXLRU].Efficiency()
			b.Logf("steady: xlru=%.3f cafe=%.3f psychic=%.3f (cafe-xlru=%+.1fpt)",
				xl, res.Steady[experiments.AlgoCafe].Efficiency(),
				res.Steady[experiments.AlgoPsychic].Efficiency(),
				100*(res.Steady[experiments.AlgoCafe].Efficiency()-xl))
		}
	}
}

// BenchmarkFig4 regenerates Figure 4 (efficiency vs alpha); the same
// sweep also backs Figure 5.
func BenchmarkFig4(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.AlphaSweep(sc, []float64{0.5, 1, 2, 4})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logResult(b, res.PrintFig4)
		}
	}
}

// BenchmarkFig5 regenerates Figure 5: the ingress/redirect operating
// points per alpha.
func BenchmarkFig5(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.AlphaSweep(sc, []float64{0.5, 1, 2, 4})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logResult(b, res.PrintFig5)
		}
	}
}

// BenchmarkFig6 regenerates Figure 6: efficiency vs disk size.
func BenchmarkFig6(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(sc, 2, []float64{0.5, 1, 2})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logResult(b, res.Print)
		}
	}
}

// BenchmarkFig7 regenerates Figure 7: the six world servers.
func BenchmarkFig7(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(sc, 2)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logResult(b, res.Print)
		}
	}
}

// BenchmarkAblations runs the design-choice ablation suite (gamma,
// window T, chunk- vs file-level tracking, Psychic's N).
func BenchmarkAblations(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Ablations(sc)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logResult(b, res.Print)
		}
	}
}

// BenchmarkBaselines regenerates the replacement-vs-admission table
// (LRU, GDSP, Belady vs xLRU, Cafe, Psychic).
func BenchmarkBaselines(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Baselines(sc)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logResult(b, res.Print)
		}
	}
}

// BenchmarkCDNWide regenerates the six-edges-plus-parent fan-in table.
func BenchmarkCDNWide(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.CDNWide(sc)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logResult(b, res.Print)
		}
	}
}

// BenchmarkPrefetchExtension regenerates the proactive-caching table.
func BenchmarkPrefetchExtension(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Prefetch(sc)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logResult(b, res.Print)
		}
	}
}

// ---------- Per-request algorithm throughput ----------

func benchTrace(b *testing.B) []videocdn.Request {
	b.Helper()
	p, err := videocdn.WorkloadProfileByName("europe")
	if err != nil {
		b.Fatal(err)
	}
	p.RequestsPerDay = 5000
	p.CatalogSize = 800
	p.NewVideosPerDay = 30
	reqs, err := videocdn.GenerateWorkload(p, 7)
	if err != nil {
		b.Fatal(err)
	}
	return reqs
}

func benchAlgorithm(b *testing.B, mk func(reqs []videocdn.Request) (videocdn.Cache, error)) {
	reqs := benchTrace(b)
	var c videocdn.Cache
	var err error
	pos := len(reqs) // force build on first iteration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pos >= len(reqs) {
			b.StopTimer()
			c, err = mk(reqs)
			if err != nil {
				b.Fatal(err)
			}
			pos = 0
			b.StartTimer()
		}
		c.HandleRequest(reqs[pos])
		pos++
	}
}

// BenchmarkXLRUHandleRequest measures xLRU's per-request cost.
func BenchmarkXLRUHandleRequest(b *testing.B) {
	benchAlgorithm(b, func(reqs []videocdn.Request) (videocdn.Cache, error) {
		return videocdn.NewCache("xlru", videocdn.CacheOptions{DiskBytes: 2 << 30, Alpha: 2})
	})
}

// BenchmarkCafeHandleRequest measures Cafe's per-request cost.
func BenchmarkCafeHandleRequest(b *testing.B) {
	benchAlgorithm(b, func(reqs []videocdn.Request) (videocdn.Cache, error) {
		return videocdn.NewCache("cafe", videocdn.CacheOptions{DiskBytes: 2 << 30, Alpha: 2})
	})
}

// BenchmarkPsychicHandleRequest measures Psychic's per-request cost
// (index construction excluded via StopTimer).
func BenchmarkPsychicHandleRequest(b *testing.B) {
	benchAlgorithm(b, func(reqs []videocdn.Request) (videocdn.Cache, error) {
		return videocdn.NewCache("psychic", videocdn.CacheOptions{DiskBytes: 2 << 30, Alpha: 2, Future: reqs})
	})
}

// BenchmarkAlwaysFillLRUHandleRequest measures the baseline's cost.
func BenchmarkAlwaysFillLRUHandleRequest(b *testing.B) {
	benchAlgorithm(b, func(reqs []videocdn.Request) (videocdn.Cache, error) {
		return videocdn.NewCache("lru", videocdn.CacheOptions{DiskBytes: 2 << 30})
	})
}

// BenchmarkWorkloadGeneration measures trace synthesis throughput.
func BenchmarkWorkloadGeneration(b *testing.B) {
	p, err := videocdn.WorkloadProfileByName("europe")
	if err != nil {
		b.Fatal(err)
	}
	p.RequestsPerDay = 5000
	p.CatalogSize = 500
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := videocdn.GenerateWorkload(p, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// logResult captures a Print method into the benchmark log.
func logResult(b *testing.B, print func(io.Writer)) {
	var sb logWriter
	print(&sb)
	b.Log("\n" + string(sb))
}

type logWriter []byte

func (w *logWriter) Write(p []byte) (int, error) {
	*w = append(*w, p...)
	return len(p), nil
}
