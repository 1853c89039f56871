package experiments

import (
	"fmt"
	"io"

	"videocdn/internal/core"
	"videocdn/internal/cost"
	"videocdn/internal/hierarchy"
	"videocdn/internal/prefetch"
	"videocdn/internal/sim"
	"videocdn/internal/trace"
)

// PrefetchResult compares plain Cafe against Cafe with the off-peak
// proactive prefetcher (the paper's Section 10 future work) for
// several alphas.
type PrefetchResult struct {
	Server string
	Rows   []PrefetchRow
}

// PrefetchRow is one (alpha, variant) measurement. Efficiency barely
// moves (a useful prefetch is the same fill, earlier); the operational
// win is peak-hour ingress relief: fills move into the overnight
// window and stop competing with peak serving.
type PrefetchRow struct {
	Alpha        float64
	BaseEff      float64
	PrefetchEff  float64
	BasePeakIng  float64 // ingress ratio over the 6 busiest hours, plain
	PrefPeakIng  float64 // same with overnight prefetch
	ExtraIngress int64   // prefetched bytes
	Useful       int     // prefetched chunks later hit
	Accepted     int
}

// prefetchAlphas are the alphas where spare ingress is plausible.
var prefetchAlphas = []float64{0.5, 1, 2}

// prefetchConfig prefetches during the overnight trough (local hours
// 2-7) with an hourly budget of 1/64 of the disk.
func prefetchConfig(sc Scale) prefetch.Config {
	return prefetch.Config{StartHour: 2, EndHour: 7, ChunksPerHour: sc.DiskChunks / 64, MaxPerVideo: 8}
}

// Prefetch runs the proactive-caching extension experiment: Cafe with
// and without the overnight prefetcher, at each of prefetchAlphas.
func Prefetch(sc Scale) (*PrefetchResult, error) {
	const server = "europe"
	gen, reqs, err := generate(server, sc)
	if err != nil {
		return nil, err
	}
	cfg := coreConfig(sc)
	res := &PrefetchResult{Server: server}
	for _, alpha := range prefetchAlphas {
		base, err := runOne(AlgoCafe, cfg, alpha, reqs, simOptions())
		if err != nil {
			return nil, err
		}
		pc, err := newCache(AlgoCafe, cfg, alpha, nil)
		if err != nil {
			return nil, err
		}
		pres, err := ReplayPrefetch(pc.(prefetch.Prefetchable), reqs, cost.MustModel(alpha), prefetchConfig(sc), gen)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, PrefetchRow{
			Alpha:        alpha,
			BaseEff:      base.Efficiency(),
			PrefetchEff:  pres.Efficiency(),
			BasePeakIng:  base.Series.PeakIngressRatio(6),
			PrefPeakIng:  pres.Series.PeakIngressRatio(6),
			ExtraIngress: pres.Stats.PrefetchedBytes,
			Useful:       pres.Stats.UsefulChunks,
			Accepted:     pres.Stats.Accepted,
		})
	}
	return res, nil
}

// PrefetchReplay is one replay with the off-peak prefetcher running:
// the replay's accounting, prefetch ingress included (prefetched bytes
// are real cache-fill traffic, charged in the hour they were spent),
// plus what the planner did.
type PrefetchReplay struct {
	*sim.Result
	Stats prefetch.Stats
}

// ReplayPrefetch replays reqs through c with the read-ahead planner
// as the replay's hook: after each request it may prefetch ahead on
// recently served videos (see prefetch.Plan).
func ReplayPrefetch(c prefetch.Prefetchable, reqs []trace.Request, model cost.Model, pcfg prefetch.Config, sizes prefetch.Sizes) (*PrefetchReplay, error) {
	observe, stats, err := prefetch.Plan(c, pcfg, sizes)
	if err != nil {
		return nil, err
	}
	res, err := sim.Replay(c, trace.Slice(reqs), model, sim.Options{Observe: observe})
	if err != nil {
		return nil, err
	}
	return &PrefetchReplay{Result: res, Stats: *stats}, nil
}

// Print renders the prefetch comparison.
func (r *PrefetchResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Proactive caching (Section 10 future work): Cafe vs Cafe+overnight prefetch (%s)\n", r.Server)
	fmt.Fprintf(w, "%6s %10s %10s | %14s %14s | %12s %8s %8s\n",
		"alpha", "eff", "eff+pf", "peak ingress", "peak ing.+pf", "extra ingr", "accept", "useful")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%6.2g %10s %10s | %14s %14s | %9.1f GB %8d %8d\n",
			row.Alpha, pct(row.BaseEff), pct(row.PrefetchEff),
			pct(row.BasePeakIng), pct(row.PrefPeakIng),
			float64(row.ExtraIngress)/(1<<30), row.Accepted, row.Useful)
	}
	fmt.Fprintln(w, "A useful prefetch is the same fill shifted off-peak: efficiency holds while")
	fmt.Fprintln(w, "peak-hour ingress drops — the spare-ingress upside Section 10 anticipates.")
}

// HierarchyResult compares single-tier deployments against a two-tier
// line of defense (constrained edge + deep parent) on CDN-level
// absorption.
type HierarchyResult struct {
	Server string
	// Single-tier reference: one cafe cache with the combined disk.
	SingleEff       float64
	SingleOriginPct float64
	// Two-tier chain.
	Chain *hierarchy.Result
}

// Hierarchy runs the two-tier extension experiment: an alpha=2 edge
// with 1/4 of the disk chained into an alpha=1 parent with 3/4, versus
// one flat cache with the whole disk.
func Hierarchy(sc Scale) (*HierarchyResult, error) {
	const server = "europe"
	reqs, err := TraceFor(server, sc)
	if err != nil {
		return nil, err
	}
	res := &HierarchyResult{Server: server}

	// Flat reference.
	flatCfg := core.Config{ChunkSize: sc.ChunkSize, DiskChunks: sc.DiskChunks}
	flat, err := runOne(AlgoCafe, flatCfg, 1, reqs, simOptions())
	if err != nil {
		return nil, err
	}
	res.SingleEff = flat.Efficiency()
	res.SingleOriginPct = flat.RedirectRatio()

	edgeCache, err := newCache(AlgoCafe, core.Config{ChunkSize: sc.ChunkSize, DiskChunks: sc.DiskChunks / 4}, 2, nil)
	if err != nil {
		return nil, err
	}
	parentCache, err := newCache(AlgoCafe, core.Config{ChunkSize: sc.ChunkSize, DiskChunks: sc.DiskChunks * 3 / 4}, 1, nil)
	if err != nil {
		return nil, err
	}
	chain, err := hierarchy.Chain([]hierarchy.Tier{
		{Name: "edge", Cache: edgeCache, Alpha: 2},
		{Name: "parent", Cache: parentCache, Alpha: 1},
	}, reqs)
	if err != nil {
		return nil, err
	}
	res.Chain = chain
	return res, nil
}

// Print renders the hierarchy comparison.
func (r *HierarchyResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Two-tier line of defense vs flat cache (%s, same total disk)\n", r.Server)
	fmt.Fprintf(w, "flat cafe (alpha=1):        eff=%s  passes %s of bytes onward\n",
		pct(r.SingleEff), pct(r.SingleOriginPct))
	c := r.Chain
	fmt.Fprintf(w, "edge (1/4 disk, alpha=2):   absorbed %s of bytes (tier eff=%s)\n",
		pct(c.AbsorbedShare(0)), pct(c.Tiers[0].Efficiency()))
	fmt.Fprintf(w, "parent (3/4 disk, alpha=1): absorbed %s of bytes (tier eff=%s)\n",
		pct(c.AbsorbedShare(1)), pct(c.Tiers[1].Efficiency()))
	fmt.Fprintf(w, "reached origin:             %s of bytes\n", pct(c.OriginShare()))
}
