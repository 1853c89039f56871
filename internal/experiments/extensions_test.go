package experiments

import (
	"strings"
	"testing"

	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/cost"
	"videocdn/internal/prefetch"
	"videocdn/internal/trace"
	"videocdn/internal/workload"
)

func TestPrefetchExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	res, err := Prefetch(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Useful > row.Accepted {
			t.Errorf("alpha=%v: useful (%d) > accepted (%d)", row.Alpha, row.Useful, row.Accepted)
		}
		if row.PrefetchEff < -1 || row.PrefetchEff > 1 {
			t.Errorf("alpha=%v: efficiency %v out of range", row.Alpha, row.PrefetchEff)
		}
	}
	var sb strings.Builder
	res.Print(&sb)
	if !strings.Contains(sb.String(), "Proactive caching") {
		t.Error("Print output missing header")
	}
}

func TestBaselinesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	// The claims read from this run are TestPaperClaims' ext:baselines
	// row.
	res := get(t, tinyBaselines)
	for _, alpha := range res.Alphas {
		for _, algo := range baselineAlgos {
			if res.Results[alpha][algo] == nil {
				t.Fatalf("missing %v/%s", alpha, algo)
			}
		}
	}
	var sb strings.Builder
	res.Print(&sb)
	if !strings.Contains(sb.String(), "baselines") {
		t.Error("Print output missing header")
	}
}

func TestRoundingSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test (LP)")
	}
	// The bracket's claims are TestPaperClaims' ext:rounding row.
	res := get(t, smallRounding)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	var sb strings.Builder
	res.Print(&sb)
	if !strings.Contains(sb.String(), "Bracketing") {
		t.Error("Print output missing header")
	}
}

func TestSensitivitySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	// The sweeps' claims are TestPaperClaims' ext:sensitivity row.
	res := get(t, tinySensitivity)
	if len(res.ChunkSizes) != 4 || len(res.Zipfs) != 4 {
		t.Fatalf("sweep sizes: %d chunks, %d zipfs", len(res.ChunkSizes), len(res.Zipfs))
	}
	var sb strings.Builder
	res.Print(&sb)
	if !strings.Contains(sb.String(), "Sensitivity") {
		t.Error("Print output missing header")
	}
}

func TestFlashSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	res := get(t, tinyFlash)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.ReqTotal == 0 {
			t.Fatalf("%s: no flash requests observed", row.Algo)
		}
		if row.Red10 > row.Req10 || row.RedTotal > row.ReqTotal {
			t.Errorf("%s: redirect counts exceed request counts", row.Algo)
		}
		// Every algorithm should admit the flash video eventually.
		if row.FirstServe < 0 {
			t.Errorf("%s: never served the flash video", row.Algo)
		}
	}
	// Psychic (offline) should admit no later than the online caches.
	var psychicFS float64
	for _, row := range res.Rows {
		if row.Algo == AlgoPsychic {
			psychicFS = row.FirstServe
		}
	}
	for _, row := range res.Rows {
		if row.Algo != AlgoPsychic && row.FirstServe >= 0 && psychicFS > row.FirstServe+1 {
			t.Errorf("psychic served at %.1f min, later than %s at %.1f",
				psychicFS, row.Algo, row.FirstServe)
		}
	}
	var sb strings.Builder
	res.Print(&sb)
	if !strings.Contains(sb.String(), "Flash crowd") {
		t.Error("Print output missing header")
	}
}

func TestConstrainedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	res := get(t, tinyConstrained)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Eff < -1 || row.Eff > 1 {
			t.Errorf("%s: efficiency %v out of range", row.Name, row.Eff)
		}
		if row.ReadLoss < 0 {
			t.Errorf("%s: negative read loss", row.Name)
		}
	}
	// The control loop's final alpha must sit in its configured range.
	ctl := res.Rows[2]
	if ctl.FinalAlpha < 1 || ctl.FinalAlpha > 4 {
		t.Errorf("controller alpha %v outside [1,4]", ctl.FinalAlpha)
	}
	var sb strings.Builder
	res.Print(&sb)
	if !strings.Contains(sb.String(), "Ingress control") {
		t.Error("Print output missing header")
	}
}

func TestCDNWideSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	res := get(t, tinyCDNWide)
	fan := res.FanIn
	if len(fan.Tiers) != 7 {
		t.Fatalf("tiers = %d, want 6 edges + parent", len(fan.Tiers))
	}
	var sum int64
	for _, b := range fan.AbsorbedBytes {
		sum += b
	}
	if sum+fan.OriginBytes != fan.TotalRequested {
		t.Error("conservation violated")
	}
	// The shared parent must reduce origin traffic vs edge-only.
	if fan.OriginShare() >= res.EdgeOnlyOrigin {
		t.Errorf("parent did not help: %.3f vs %.3f", fan.OriginShare(), res.EdgeOnlyOrigin)
	}
	var sb strings.Builder
	res.Print(&sb)
	if !strings.Contains(sb.String(), "CDN-wide") {
		t.Error("Print output missing header")
	}
}

func TestHierarchyExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	res := get(t, tinyHierarchy)
	c := res.Chain
	total := c.AbsorbedBytes[0] + c.AbsorbedBytes[1] + c.OriginBytes
	if total != c.TotalRequested {
		t.Errorf("conservation violated: %d != %d", total, c.TotalRequested)
	}
	// The two-tier defense should absorb a meaningful share.
	if c.OriginShare() > 0.95 {
		t.Errorf("origin share %.2f implausibly high", c.OriginShare())
	}
	var sb strings.Builder
	res.Print(&sb)
	if !strings.Contains(sb.String(), "Two-tier") {
		t.Error("Print output missing header")
	}
}

// TestReplayPrefetchChargesOwnChunkSize: every admitted prefetch fills
// one chunk of the cache's own size, and is charged that many bytes,
// whatever K the cache was built with.
func TestReplayPrefetchChargesOwnChunkSize(t *testing.T) {
	p, err := workload.ProfileByName("europe")
	if err != nil {
		t.Fatal(err)
	}
	p.RequestsPerDay, p.CatalogSize, p.NewVideosPerDay = 500, 100, 5
	g, err := workload.NewGenerator(p)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := g.Generate(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int64{1 << 20, 2 << 20} {
		c, err := newCache(AlgoCafe, core.Config{ChunkSize: k, DiskChunks: int(256 << 20 / k)}, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ReplayPrefetch(c.(prefetch.Prefetchable), reqs, cost.MustModel(1), prefetch.Config{ChunksPerHour: 20}, g)
		if err != nil {
			t.Fatal(err)
		}
		if res.Requests != len(reqs) {
			t.Errorf("K=%d: replayed %d, want %d", k, res.Requests, len(reqs))
		}
		if res.Stats.Accepted == 0 {
			t.Fatalf("K=%d: no prefetch admitted", k)
		}
		if got, want := res.Stats.PrefetchedBytes, int64(res.Stats.Accepted)*k; got != want {
			t.Errorf("K=%d: %d admitted prefetches charged %d bytes, want %d", k, res.Stats.Accepted, got, want)
		}
	}
}

// fixedCache returns one outcome for every request and never
// prefetches: a policy that breaks the outcome invariants.
type fixedCache struct{ out core.Outcome }

func (c fixedCache) HandleRequest(trace.Request) core.Outcome { return c.out }
func (fixedCache) Contains(chunk.ID) bool                     { return false }
func (fixedCache) Len() int                                   { return 0 }
func (fixedCache) Name() string                               { return "fixed" }
func (fixedCache) ChunkSize() int64                           { return chunk.DefaultSize }
func (fixedCache) PrefetchNext(chunk.VideoID, int64, int64) (chunk.ID, bool, bool, []chunk.ID) {
	return chunk.ID{}, false, false, nil
}

// noSizes knows no video's size.
type noSizes struct{}

func (noSizes) SizeOf(chunk.VideoID) (int64, bool) { return 0, false }

// TestReplayPrefetchRejectsBrokenInput: the prefetch replay runs on the
// simulator's one replay loop, so it inherits its checks and returns an
// error for a trace out of time order or an outcome that breaks the
// accounting invariants, instead of panicking inside the cache or
// accepting the numbers.
func TestReplayPrefetchRejectsBrokenInput(t *testing.T) {
	const k = chunk.DefaultSize
	at := func(times ...int64) (reqs []trace.Request) {
		for i, tm := range times {
			reqs = append(reqs, trace.Request{Time: tm, Video: chunk.VideoID(i + 1), Start: 0, End: k - 1})
		}
		return reqs
	}
	ordered, shuffled := at(0, 10, 20, 30), at(0, 10, 5, 30)
	for _, in := range []struct {
		name  string
		cache func() prefetch.Prefetchable
		reqs  []trace.Request
	}{
		{"out of order (cafe)", func() prefetch.Prefetchable {
			c, err := newCache(AlgoCafe, core.Config{ChunkSize: k, DiskChunks: 32}, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			return c.(prefetch.Prefetchable)
		}, shuffled},
		{"redirect with fill", func() prefetch.Prefetchable {
			return fixedCache{core.Outcome{Decision: core.Redirect, FilledChunks: 1, FilledBytes: k}}
		}, ordered},
		{"FilledIDs mismatch", func() prefetch.Prefetchable {
			return fixedCache{core.Outcome{Decision: core.Serve, FilledChunks: 2, FilledBytes: 2 * k,
				FilledIDs: []chunk.ID{{Video: 1}}}}
		}, ordered},
	} {
		t.Run(in.name, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panicked: %v", p)
				}
			}()
			_, err := ReplayPrefetch(in.cache(), in.reqs, cost.MustModel(1), prefetch.Config{ChunksPerHour: 10}, noSizes{})
			if err == nil {
				t.Fatal("accepted")
			}
			t.Log(err)
		})
	}
}
