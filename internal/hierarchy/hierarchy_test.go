package hierarchy

import (
	"testing"

	"videocdn/internal/cafe"
	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/lruq"
	"videocdn/internal/trace"
	"videocdn/internal/workload"
	"videocdn/internal/xlru"
)

const testK = 1024

func req(t int64, v chunk.VideoID, c0, c1 int) trace.Request {
	return trace.Request{Time: t, Video: v, Start: int64(c0) * testK, End: int64(c1+1)*testK - 1}
}

func mkXLRU(t *testing.T, disk int, alpha float64) core.Cache {
	t.Helper()
	c, err := xlru.New(core.Config{ChunkSize: testK, DiskChunks: disk}, alpha)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mkLRU(t *testing.T, disk int) core.Cache {
	t.Helper()
	c, err := lruq.New(core.Config{ChunkSize: testK, DiskChunks: disk}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestChainValidation(t *testing.T) {
	reqs := []trace.Request{req(0, 1, 0, 0)}
	if _, err := Chain(nil, reqs); err == nil {
		t.Error("no tiers should fail")
	}
	if _, err := Chain([]Tier{{Name: "e", Cache: mkLRU(t, 4), Alpha: 1}}, nil); err == nil {
		t.Error("empty trace should fail")
	}
	if _, err := Chain([]Tier{{Name: "e", Alpha: 1}}, reqs); err == nil {
		t.Error("nil cache should fail")
	}
	if _, err := Chain([]Tier{{Name: "e", Cache: mkLRU(t, 4), Alpha: -1}}, reqs); err == nil {
		t.Error("bad alpha should fail")
	}
}

func TestChainConservation(t *testing.T) {
	// Edge redirects first-sightings (xlru, full disk); parent is
	// always-fill so nothing reaches origin.
	edge := mkXLRU(t, 2, 1)
	parent := mkLRU(t, 64)
	var reqs []trace.Request
	tm := int64(0)
	for i := 0; i < 200; i++ {
		reqs = append(reqs, req(tm, chunk.VideoID(i%17), 0, 0))
		tm += 3
	}
	res, err := Chain([]Tier{
		{Name: "edge", Cache: edge, Alpha: 2},
		{Name: "parent", Cache: parent, Alpha: 1},
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	// Conservation: absorbed(edge) + absorbed(parent) + origin = total.
	sum := res.AbsorbedBytes[0] + res.AbsorbedBytes[1] + res.OriginBytes
	if sum != res.TotalRequested {
		t.Errorf("conservation violated: %d + %d + %d != %d",
			res.AbsorbedBytes[0], res.AbsorbedBytes[1], res.OriginBytes, res.TotalRequested)
	}
	if res.OriginBytes != 0 {
		t.Errorf("always-fill parent should absorb everything, origin = %d", res.OriginBytes)
	}
	// Parent's incoming volume equals edge's redirected volume.
	if res.Tiers[1].Counters.Requested != res.Tiers[0].Counters.Redirected {
		t.Errorf("parent in (%d) != edge redirected (%d)",
			res.Tiers[1].Counters.Requested, res.Tiers[0].Counters.Redirected)
	}
	// Decision counts line up.
	if res.Tiers[0].Served+res.Tiers[0].Redirect != len(reqs) {
		t.Error("edge decision counts wrong")
	}
	if res.Tiers[1].Served+res.Tiers[1].Redirect != res.Tiers[0].Redirect {
		t.Error("parent decision counts wrong")
	}
}

func TestChainLastTierRedirectsToOrigin(t *testing.T) {
	// Single xlru tier with a tiny disk: first-sightings fall through.
	edge := mkXLRU(t, 1, 1)
	reqs := []trace.Request{
		req(0, 1, 0, 0),
		req(1, 2, 0, 0),
		req(2, 3, 0, 0),
	}
	res, err := Chain([]Tier{{Name: "edge", Cache: edge, Alpha: 1}}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.OriginBytes == 0 {
		t.Error("redirects of the only tier must reach origin")
	}
	if res.OriginShare() <= 0 || res.OriginShare() > 1 {
		t.Errorf("OriginShare = %v", res.OriginShare())
	}
}

func TestDeepParentAbsorbsEdgeMisses(t *testing.T) {
	// Realistic composition: cafe edge (alpha=2, small) + cafe parent
	// (alpha=1, 8x disk). The parent must absorb a meaningful share of
	// what the edge redirects.
	p, err := workload.ProfileByName("europe")
	if err != nil {
		t.Fatal(err)
	}
	p.RequestsPerDay = 1500
	p.CatalogSize = 300
	p.NewVideosPerDay = 10
	g, err := workload.NewGenerator(p)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := g.Generate(6)
	if err != nil {
		t.Fatal(err)
	}
	cfgEdge := core.Config{ChunkSize: chunk.DefaultSize, DiskChunks: 256}
	cfgParent := core.Config{ChunkSize: chunk.DefaultSize, DiskChunks: 2048}
	edge, err := cafe.New(cfgEdge, 2, cafe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	parent, err := cafe.New(cfgParent, 1, cafe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Chain([]Tier{
		{Name: "edge", Cache: edge, Alpha: 2},
		{Name: "parent", Cache: parent, Alpha: 1},
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.AbsorbedShare(1) < 0.1 {
		t.Errorf("parent absorbed only %.1f%%", 100*res.AbsorbedShare(1))
	}
	if res.OriginShare() > 0.9 {
		t.Errorf("origin share %.1f%% too high for a two-tier defense", 100*res.OriginShare())
	}
}

func TestFanInRouting(t *testing.T) {
	e0 := mkLRU(t, 64)
	e1 := mkLRU(t, 64)
	parent := mkLRU(t, 64)
	var reqs []trace.Request
	for i := 0; i < 100; i++ {
		reqs = append(reqs, req(int64(i), chunk.VideoID(i%10), 0, 0))
	}
	assign := func(r trace.Request) int { return int(r.Video) % 2 }
	res, err := FanIn(
		[]Tier{{Name: "edge0", Cache: e0, Alpha: 1}, {Name: "edge1", Cache: e1, Alpha: 1}},
		Tier{Name: "parent", Cache: parent, Alpha: 1},
		reqs, assign)
	if err != nil {
		t.Fatal(err)
	}
	// Even/odd split: each edge saw only its videos.
	if res.Tiers[0].Served+res.Tiers[0].Redirect != 50 {
		t.Errorf("edge0 handled %d", res.Tiers[0].Served+res.Tiers[0].Redirect)
	}
	if res.Tiers[1].Served+res.Tiers[1].Redirect != 50 {
		t.Errorf("edge1 handled %d", res.Tiers[1].Served+res.Tiers[1].Redirect)
	}
	// Always-fill edges never redirect; the parent sees nothing.
	if res.Tiers[2].Counters.Requested != 0 {
		t.Error("parent should be idle behind always-fill edges")
	}
	sum := res.AbsorbedBytes[0] + res.AbsorbedBytes[1] + res.AbsorbedBytes[2] + res.OriginBytes
	if sum != res.TotalRequested {
		t.Error("conservation violated")
	}
}

func TestFanInSharedParentCatchesRedirects(t *testing.T) {
	// Tiny xlru edges redirect their first sightings; the shared
	// parent (always-fill) sees the union and serves it.
	e0 := mkXLRU(t, 1, 1)
	e1 := mkXLRU(t, 1, 1)
	parent := mkLRU(t, 128)
	var reqs []trace.Request
	for i := 0; i < 60; i++ {
		reqs = append(reqs, req(int64(i), chunk.VideoID(i%6), 0, 0))
	}
	res, err := FanIn(
		[]Tier{{Name: "e0", Cache: e0, Alpha: 2}, {Name: "e1", Cache: e1, Alpha: 2}},
		Tier{Name: "parent", Cache: parent, Alpha: 1},
		reqs, func(r trace.Request) int { return int(r.Video) % 2 })
	if err != nil {
		t.Fatal(err)
	}
	if res.Tiers[2].Counters.Requested == 0 {
		t.Fatal("parent should have received redirects")
	}
	if res.OriginBytes != 0 {
		t.Error("always-fill parent should stop everything")
	}
}

func TestFanInValidation(t *testing.T) {
	reqs := []trace.Request{req(0, 1, 0, 0)}
	parent := Tier{Name: "p", Cache: mkLRU(t, 4), Alpha: 1}
	if _, err := FanIn(nil, parent, reqs, func(trace.Request) int { return 0 }); err == nil {
		t.Error("no edges should fail")
	}
	edges := []Tier{{Name: "e", Cache: mkLRU(t, 4), Alpha: 1}}
	if _, err := FanIn(edges, parent, reqs, nil); err == nil {
		t.Error("nil assign should fail")
	}
	if _, err := FanIn(edges, parent, nil, func(trace.Request) int { return 0 }); err == nil {
		t.Error("empty trace should fail")
	}
	if _, err := FanIn(edges, parent, reqs, func(trace.Request) int { return 5 }); err == nil {
		t.Error("out-of-range assignment should fail")
	}
	if _, err := FanIn(edges, Tier{Name: "p", Alpha: 1}, reqs, func(trace.Request) int { return 0 }); err == nil {
		t.Error("parent without cache should fail")
	}
}
