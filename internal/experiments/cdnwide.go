package experiments

import (
	"fmt"
	"io"

	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/hierarchy"
	"videocdn/internal/trace"
)

// regionShift namespaces each region's video IDs before merging
// traces; generator IDs stay far below this.
const regionShift = 1 << 24

// CDNWideResult is the six-edges-plus-shared-parent experiment — a
// concrete instance of the "CDN-wide optimality with Cafe Cache"
// direction of Section 10: constrained edges run alpha=2, their merged
// redirects land on one deep alpha=1 parent.
type CDNWideResult struct {
	Servers []string
	FanIn   *hierarchy.Result
	// EdgeOnlyOrigin is the origin share with no parent tier (every
	// edge redirect goes straight to origin) — the comparison point.
	EdgeOnlyOrigin float64
}

// CDNWide runs the fan-in experiment over all six regional traces.
func CDNWide(sc Scale) (*CDNWideResult, error) {
	servers := serverNames()
	traces := make([][]trace.Request, len(servers))
	for i, name := range servers {
		reqs, err := TraceFor(name, sc)
		if err != nil {
			return nil, err
		}
		traces[i] = trace.OffsetVideos(reqs, chunk.VideoID(i+1)*regionShift)
	}
	merged := trace.Merge(traces...)

	var edges []hierarchy.Tier
	for _, name := range servers {
		c, err := newCache(AlgoCafe, core.Config{ChunkSize: sc.ChunkSize, DiskChunks: sc.DiskChunks / 2}, 2, nil)
		if err != nil {
			return nil, err
		}
		edges = append(edges, hierarchy.Tier{Name: name, Cache: c, Alpha: 2})
	}
	parentCache, err := newCache(AlgoCafe, core.Config{ChunkSize: sc.ChunkSize, DiskChunks: sc.DiskChunks * 3}, 1, nil)
	if err != nil {
		return nil, err
	}
	assign := func(r trace.Request) int {
		return int(r.Video/regionShift) - 1
	}
	fan, err := hierarchy.FanIn(edges, hierarchy.Tier{Name: "parent", Cache: parentCache, Alpha: 1}, merged, assign)
	if err != nil {
		return nil, err
	}

	// Reference: same edges, no parent — redirects go to origin. The
	// edges behave identically (their decision stream only depends on
	// their own traffic), so the edge-only origin share is simply the
	// total redirected volume.
	var redirected int64
	for i := range servers {
		redirected += fan.Tiers[i].Counters.Redirected
	}
	res := &CDNWideResult{
		Servers: servers,
		FanIn:   fan,
	}
	if fan.TotalRequested > 0 {
		res.EdgeOnlyOrigin = float64(redirected) / float64(fan.TotalRequested)
	}
	return res, nil
}

// Print renders the CDN-wide absorption table.
func (r *CDNWideResult) Print(w io.Writer) {
	fmt.Fprintln(w, "CDN-wide fan-in (Section 10 direction): six alpha=2 edges, one shared alpha=1 parent")
	fmt.Fprintf(w, "%-14s %12s %12s %12s\n", "edge", "absorbed", "tier eff", "redirected")
	fan := r.FanIn
	for i, name := range r.Servers {
		tr := fan.Tiers[i]
		fmt.Fprintf(w, "%-14s %12s %12s %12s\n", name,
			pct(fan.AbsorbedShare(i)), pct(tr.Efficiency()), pct(tr.Counters.RedirectRatio()))
	}
	parent := fan.Tiers[len(fan.Tiers)-1]
	fmt.Fprintf(w, "%-14s %12s %12s (of the merged redirect stream)\n",
		"parent", pct(fan.AbsorbedShare(len(r.Servers))), pct(parent.Efficiency()))
	fmt.Fprintf(w, "\norigin share without parent tier: %s\n", pct(r.EdgeOnlyOrigin))
	fmt.Fprintf(w, "origin share with shared parent:  %s\n", pct(fan.OriginShare()))
	saved := r.EdgeOnlyOrigin - fan.OriginShare()
	fmt.Fprintf(w, "The second line of defense cuts origin traffic by %s of all requested bytes.\n", pct(saved))
}
