package cafe

import (
	"testing"

	"videocdn/internal/core"
	"videocdn/internal/cost"
	"videocdn/internal/sim"
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

// The repository benchmark's replay-cafe workload at seed 1: the
// europe profile capped at 128 MB per video, split into 8 independently
// seeded parts (workload.SplitProfile) of 30 days each and merged; the
// first 98 304 requests, replayed on 2 MiB chunks over a 32 768-chunk
// disk at alpha 2, in batches of 256.
const (
	rigRequests = 98304
	rigBatch    = 256
	rigAlpha    = 2
)

var rigConfig = core.Config{ChunkSize: 2 << 20, DiskChunks: 32768, ReuseOutcomeBuffers: true}

func replayCafeRig(tb testing.TB) []trace.Request {
	p, err := workload.ProfileByName("europe")
	if err != nil {
		tb.Fatal(err)
	}
	p.Seed, p.MaxVideoMB = 1, 128
	parts, err := workload.SplitProfile(p, 8)
	if err != nil {
		tb.Fatal(err)
	}
	traces := make([][]trace.Request, len(parts))
	for i, part := range parts {
		g, err := workload.NewGenerator(part)
		if err != nil {
			tb.Fatal(err)
		}
		if traces[i], err = g.Generate(30); err != nil {
			tb.Fatal(err)
		}
	}
	reqs := trace.Merge(traces...)
	if len(reqs) < rigRequests {
		tb.Fatalf("the rig generated %d requests, want at least %d", len(reqs), rigRequests)
	}
	return reqs[:rigRequests]
}

// TestReplayCafeRigDigest pins Cafe's outcome stream on the replay-cafe
// rig to the digest the benchmark checks every iteration against: the
// FNV-1a fold of each outcome's decision, fill count, filled chunk keys
// and evicted chunk keys, in order.
func TestReplayCafeRigDigest(t *testing.T) {
	reqs := replayCafeRig(t)
	c, err := New(rigConfig, rigAlpha, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fold := func(h, v uint64) uint64 {
		for k := 0; k < 8; k++ {
			h = (h ^ v&0xff) * 1099511628211
			v >>= 8
		}
		return h
	}
	sum := uint64(14695981039346656037)
	for _, r := range reqs {
		out := c.HandleRequest(r)
		sum = fold(fold(sum, uint64(out.Decision)), uint64(len(out.FilledIDs)))
		for _, id := range out.FilledIDs {
			sum = fold(sum, id.Key())
		}
		for _, id := range out.EvictedIDs {
			sum = fold(sum, id.Key())
		}
	}
	const want = 0x78b6208d3d45c053
	if sum != want {
		t.Errorf("outcome digest %x, want %x", sum, want)
	}
}

// BenchmarkReplayCafeRig is the replay-cafe workload's loop without the
// bench module: the rig's requests through sim.Replay in batches of 256,
// from a cold policy every iteration, reported as ns/req.
func BenchmarkReplayCafeRig(b *testing.B) {
	reqs := replayCafeRig(b)
	model, err := cost.NewModel(rigAlpha)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := New(rigConfig, rigAlpha, Options{})
		if err != nil {
			b.Fatal(err)
		}
		for next := 0; next < len(reqs); next += rigBatch {
			if _, err := sim.Replay(c, trace.Slice(reqs[next:next+rigBatch]), model, sim.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(reqs)), "ns/req")
}
