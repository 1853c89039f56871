// Package hierarchy simulates multi-tier CDN deployments: chains and
// fan-in trees of cache servers in which a tier's redirected requests
// become the next tier's request stream — the "higher level, larger
// serving site in a cache hierarchy, which captures redirects of its
// downstream servers" of Section 2, and a building block for the
// CDN-wide optimization the paper leaves as future work (Section 10).
//
// Each tier has its own algorithm and alpha_F2R, so an
// ingress-constrained edge (alpha = 2) can be composed with a deep,
// indifferent parent (alpha = 1) and the combined lines of defense
// evaluated end to end.
package hierarchy

import (
	"errors"
	"fmt"

	"videocdn/internal/core"
	"videocdn/internal/cost"
	"videocdn/internal/sim"
	"videocdn/internal/trace"
)

// Tier is one level of the hierarchy.
type Tier struct {
	// Name labels the tier in results ("edge", "parent", ...).
	Name string
	// Cache is the tier's decision engine.
	Cache core.Cache
	// Alpha is the tier's alpha_F2R, used for its efficiency metric.
	Alpha float64
}

// TierResult is one tier's accounting after a replay.
type TierResult struct {
	Name     string
	Model    cost.Model
	Counters cost.Counters
	Served   int
	Redirect int
}

// Efficiency is the tier's cache efficiency (Eq. 2) over its own
// incoming stream.
func (t *TierResult) Efficiency() float64 { return t.Counters.Efficiency(t.Model) }

// Result is the outcome of a hierarchy replay.
type Result struct {
	Tiers []TierResult
	// TotalRequested is the byte volume entering the first tier(s).
	TotalRequested int64
	// AbsorbedBytes[i] is the byte volume tier i served from cache or
	// fill (i.e. did not pass on).
	AbsorbedBytes []int64
	// OriginBytes is the volume redirected past the last tier — the
	// traffic the CDN failed to absorb.
	OriginBytes int64
	// FillBytes[i] is tier i's ingress (cache-fill) volume.
	FillBytes []int64
}

// AbsorbedShare returns tier i's absorbed fraction of the total.
func (r *Result) AbsorbedShare(i int) float64 {
	if r.TotalRequested == 0 {
		return 0
	}
	return float64(r.AbsorbedBytes[i]) / float64(r.TotalRequested)
}

// OriginShare is the fraction of requested bytes that fell through
// every line of defense.
func (r *Result) OriginShare() float64 {
	if r.TotalRequested == 0 {
		return 0
	}
	return float64(r.OriginBytes) / float64(r.TotalRequested)
}

// Chain replays reqs through a linear chain of tiers: tier 0 sees the
// user traffic; requests redirected by tier i are offered, with the
// same timestamps, to tier i+1; redirects of the last tier count as
// origin traffic. Each tier is one sim.Replay of its own stream.
func Chain(tiers []Tier, reqs []trace.Request) (*Result, error) {
	if len(tiers) == 0 {
		return nil, errors.New("hierarchy: no tiers")
	}
	if len(reqs) == 0 {
		return nil, errors.New("hierarchy: empty trace")
	}
	res := &Result{}
	stream := reqs
	for _, tier := range tiers {
		var next []trace.Request
		tr, err := replayTier(tier, stream, func(k int) { next = append(next, stream[k]) })
		if err != nil {
			return nil, err
		}
		res.Tiers = append(res.Tiers, tr)
		stream = next
	}
	res.tally(1)
	return res, nil
}

// FanIn replays reqs through a two-level tree: assign routes each
// request to one of the edges (e.g. by user network); every edge's
// redirects merge, in input order, into the shared parent; the
// parent's redirects count as origin traffic. Each edge replays only
// the requests assigned to it, and the parent the union of their
// redirects: the caches share nothing, so this is the interleaved
// single pass, decision for decision.
//
// The result's Tiers are the edges in order followed by the parent;
// AbsorbedBytes is indexed the same way.
func FanIn(edges []Tier, parent Tier, reqs []trace.Request, assign func(trace.Request) int) (*Result, error) {
	if len(edges) == 0 {
		return nil, errors.New("hierarchy: no edges")
	}
	if assign == nil {
		return nil, errors.New("hierarchy: nil assign function")
	}
	if len(reqs) == 0 {
		return nil, errors.New("hierarchy: empty trace")
	}
	// Route: each edge's stream, and where its requests sit in reqs.
	streams := make([][]trace.Request, len(edges))
	pos := make([][]int, len(edges))
	for j, r := range reqs {
		if j > 0 && r.Time < reqs[j-1].Time {
			return nil, fmt.Errorf("hierarchy: request %d out of order (t=%d after %d)", j, r.Time, reqs[j-1].Time)
		}
		i := assign(r)
		if i < 0 || i >= len(edges) {
			return nil, fmt.Errorf("hierarchy: assign(%v) = %d out of range", r.Video, i)
		}
		streams[i] = append(streams[i], r)
		pos[i] = append(pos[i], j)
	}
	res := &Result{}
	redirected := make([]bool, len(reqs))
	for i, e := range edges {
		tr, err := replayTier(e, streams[i], func(k int) { redirected[pos[i][k]] = true })
		if err != nil {
			return nil, err
		}
		res.Tiers = append(res.Tiers, tr)
	}
	var up []trace.Request
	for j, r := range reqs {
		if redirected[j] {
			up = append(up, r)
		}
	}
	tr, err := replayTier(parent, up, func(int) {})
	if err != nil {
		return nil, err
	}
	res.Tiers = append(res.Tiers, tr)
	res.tally(len(edges))
	return res, nil
}

// replayTier replays stream through one tier, calling redirect with
// the stream index of each request the tier redirects. An empty stream
// leaves the tier idle.
func replayTier(t Tier, stream []trace.Request, redirect func(k int)) (TierResult, error) {
	model, err := cost.NewModel(t.Alpha)
	if err != nil {
		return TierResult{}, fmt.Errorf("hierarchy: tier %q: %w", t.Name, err)
	}
	if t.Cache == nil {
		return TierResult{}, fmt.Errorf("hierarchy: tier %q has no cache", t.Name)
	}
	tr := TierResult{Name: t.Name, Model: model}
	if len(stream) == 0 {
		return tr, nil
	}
	k := 0
	observe := func(_ trace.Request, out core.Outcome) int64 {
		if out.Decision == core.Redirect {
			redirect(k)
		}
		k++
		return 0
	}
	res, err := sim.Replay(t.Cache, trace.Slice(stream), model, sim.Options{Observe: observe})
	if err != nil {
		return tr, fmt.Errorf("hierarchy: tier %q: %w", t.Name, err)
	}
	tr.Counters, tr.Served, tr.Redirect = res.Total, res.Served, res.Redirected
	return tr, nil
}

// tally derives the byte totals from the tiers' counters. The first
// firstLine tiers (tier 0 of a chain, or the edges of a fan-in) each
// see their share of the user traffic; the last tier's redirects reach
// the origin.
func (r *Result) tally(firstLine int) {
	r.AbsorbedBytes = make([]int64, len(r.Tiers))
	r.FillBytes = make([]int64, len(r.Tiers))
	for i, t := range r.Tiers {
		if i < firstLine {
			r.TotalRequested += t.Counters.Requested
		}
		r.AbsorbedBytes[i] = t.Counters.Requested - t.Counters.Redirected
		r.FillBytes[i] = t.Counters.Filled
	}
	r.OriginBytes = r.Tiers[len(r.Tiers)-1].Counters.Redirected
}
