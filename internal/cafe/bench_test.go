package cafe

import (
	"testing"

	"videocdn/internal/core"
	"videocdn/internal/trace"
	"videocdn/internal/workload"
	"videocdn/internal/xlru"
)

// europeTrace is a short seeded europe trace, capped at 128 MB per
// video as the repository benchmark's replay-cafe workload caps it.
func europeTrace(tb testing.TB) []trace.Request {
	p, err := workload.ProfileByName("europe")
	if err != nil {
		tb.Fatal(err)
	}
	p.Seed, p.MaxVideoMB = 1, 128
	g, err := workload.NewGenerator(p)
	if err != nil {
		tb.Fatal(err)
	}
	reqs, err := g.Generate(3)
	if err != nil {
		tb.Fatal(err)
	}
	return reqs
}

// BenchmarkHandleRequestEurope replays one seeded trace from a cold
// policy per iteration and reports ns/req for Cafe and for xLRU, so the
// ROADMAP's Cafe : xLRU ratio reads off two adjacent lines. The third
// line is Cafe at alpha 0.5, where C_F < C_R and no request can be
// settled before the victim scan: what the ordered set alone costs.
func BenchmarkHandleRequestEurope(b *testing.B) {
	reqs := europeTrace(b)
	cfg := core.Config{ChunkSize: 2 << 20, DiskChunks: 8192}
	policies := []struct {
		name string
		new  func() (core.Cache, error)
	}{
		{"cafe", func() (core.Cache, error) { return New(cfg, 2, Options{}) }},
		{"xlru", func() (core.Cache, error) { return xlru.New(cfg, 2) }},
		{"cafe-alpha0.5", func() (core.Cache, error) { return New(cfg, 0.5, Options{}) }},
	}
	for _, p := range policies {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c, err := p.new()
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range reqs {
					c.HandleRequest(r)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(reqs)), "ns/req")
		})
	}
}
