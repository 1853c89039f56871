package sim

import (
	"testing"

	"videocdn/internal/cafe"
	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/cost"
	_ "videocdn/internal/lruq" // registers "lru"
	"videocdn/internal/policy"
	"videocdn/internal/psychic"
	"videocdn/internal/trace"
	"videocdn/internal/workload"
	"videocdn/internal/xlru"
)

// integrationTrace generates a small but realistic workload shared by
// the cross-algorithm tests.
func integrationTrace(t *testing.T) []trace.Request {
	t.Helper()
	p, err := workload.ProfileByName("europe")
	if err != nil {
		t.Fatal(err)
	}
	p.RequestsPerDay = 2000
	p.CatalogSize = 400
	p.NewVideosPerDay = 15
	g, err := workload.NewGenerator(p)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := g.Generate(10)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

func runAll(t *testing.T, reqs []trace.Request, alpha float64, disk int) map[string]*Result {
	t.Helper()
	cfg := core.Config{ChunkSize: chunk.DefaultSize, DiskChunks: disk}
	m := cost.MustModel(alpha)
	out := map[string]*Result{}

	cl, err := policy.New("lru", cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cx, err := xlru.New(cfg, alpha)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := cafe.New(cfg, alpha, cafe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := psychic.New(cfg, alpha, reqs, psychic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []core.Cache{cl, cx, cc, cp} {
		res, err := Replay(c, trace.Slice(reqs), m, Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		out[c.Name()] = res
	}
	return out
}

// The paper's headline (Section 9.2): for ingress-constrained servers
// (alpha=2), Cafe clearly beats xLRU and approaches Psychic.
func TestPaperShapeAlpha2(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	reqs := integrationTrace(t)
	res := runAll(t, reqs, 2, 1024)
	xl, cf, ps := res["xlru"].Efficiency(), res["cafe"].Efficiency(), res["psychic"].Efficiency()
	if cf < xl+0.04 {
		t.Errorf("alpha=2: cafe (%.3f) should clearly beat xlru (%.3f)", cf, xl)
	}
	if ps < cf-0.05 {
		t.Errorf("alpha=2: psychic (%.3f) should not trail cafe (%.3f) by much", ps, cf)
	}
	// Always-fill LRU must pay for its ingress at alpha=2.
	if res["lru"].Efficiency() >= xl {
		t.Errorf("alpha=2: always-fill LRU (%.3f) should lose to xlru (%.3f)",
			res["lru"].Efficiency(), xl)
	}
	if res["lru"].RedirectRatio() != 0 {
		t.Errorf("pure LRU redirected %.3f of bytes; should be 0", res["lru"].RedirectRatio())
	}
}

// At alpha=1 the two online algorithms are comparable (paper: Cafe up
// to ~2% higher).
func TestPaperShapeAlpha1(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	reqs := integrationTrace(t)
	res := runAll(t, reqs, 1, 1024)
	xl, cf := res["xlru"].Efficiency(), res["cafe"].Efficiency()
	if cf < xl-0.02 {
		t.Errorf("alpha=1: cafe (%.3f) should be at least comparable to xlru (%.3f)", cf, xl)
	}
}

// Higher alpha must push every admission-controlled cache toward less
// ingress and more redirection (Figure 5's operating-point curve).
func TestOperatingPointsMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	reqs := integrationTrace(t)
	for _, name := range []string{"xlru", "cafe"} {
		var lastIngress float64 = 2
		for _, alpha := range []float64{0.5, 1, 2, 4} {
			res := runAll(t, reqs, alpha, 1024)[name]
			ing := res.IngressRatio()
			if ing > lastIngress+0.02 {
				t.Errorf("%s: ingress should not rise with alpha (%.3f after %.3f at alpha=%v)",
					name, ing, lastIngress, alpha)
			}
			lastIngress = ing
		}
	}
}

// Cafe complies with the knob far better than xLRU at high alpha
// (Figure 5: xLRU's ingress floor vs Cafe's few percent).
func TestCafeCompliesWithAlpha4(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	reqs := integrationTrace(t)
	res := runAll(t, reqs, 4, 1024)
	if res["cafe"].IngressRatio() >= res["xlru"].IngressRatio() {
		t.Errorf("alpha=4: cafe ingress (%.3f) should undercut xlru (%.3f)",
			res["cafe"].IngressRatio(), res["xlru"].IngressRatio())
	}
}

// Efficiency grows with disk size for every algorithm (Figure 6).
func TestDiskMonotonicity(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	reqs := integrationTrace(t)
	for _, name := range []string{"xlru", "cafe", "psychic"} {
		last := -2.0
		for _, disk := range []int{512, 1024, 2048} {
			res := runAll(t, reqs, 2, disk)[name]
			eff := res.Efficiency()
			if eff < last-0.02 {
				t.Errorf("%s: efficiency should grow with disk (%.3f after %.3f at %d)",
					name, eff, last, disk)
			}
			last = eff
		}
	}
}
