// Package videocdn is a from-scratch reproduction of "Caching in Video
// CDNs: Building Strong Lines of Defense" (Mokhtarian & Jacobsen,
// EuroSys 2014): cache algorithms for video CDN edge servers that
// decide, per request, between serving (cache-filling missing chunks)
// and redirecting to an alternative server, governed by the
// ingress-to-redirect preference alpha_F2R.
//
// The package is a facade over the internal implementation and is the
// stable public API:
//
//   - NewCache builds any registered policy from a spec: the paper's
//     caches "xlru", "cafe" and "psychic" (Sections 5, 6, 8), the
//     classic always-fill "lru", and the Section 10 and Section 2
//     wrappers "alphactl:inner=cafe,..." and "writelimit:inner=...".
//     All satisfy the Cache interface.
//   - Replay drives a trace (SliceTrace) through a cache and reports
//     efficiency, ingress and redirect ratios (Section 9's metrics);
//     NewCostModel is the Eq. 4 normalization it scores with.
//   - ReplayChain stacks caches into lines of defense (Section 2's
//     cache hierarchy).
//   - WorkloadProfileByName and GenerateWorkload synthesize realistic
//     six-region traces substituting for the paper's proprietary logs;
//     ImportCSVTrace and AnalyzeTrace bring in and characterize a real
//     access log.
//
// The HTTP edge and origin servers, the offline LP bound and columnar
// trace directories are reached through the command-line tools
// (cdnserver, experiments, tracegen), not through this package.
//
// A minimal use:
//
//	cache, _ := videocdn.NewCache("cafe", videocdn.CacheOptions{DiskBytes: 16 << 30, Alpha: 2})
//	res, _ := videocdn.Replay(cache, videocdn.SliceTrace(requests), 2, videocdn.ReplayOptions{})
//	fmt.Println(res.Efficiency())
package videocdn

import (
	"io"

	"videocdn/internal/analyze"
	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/cost"
	"videocdn/internal/hierarchy"
	"videocdn/internal/policy"
	_ "videocdn/internal/policy/all"
	"videocdn/internal/sim"
	"videocdn/internal/trace"
	"videocdn/internal/workload"
)

// DefaultChunkSize is the paper's chunk size K: 2 MB.
const DefaultChunkSize = chunk.DefaultSize

// Re-exported core types. A Request carries an arrival time (seconds),
// a video ID and an inclusive byte range; a Cache decides to serve or
// redirect it.
type (
	// Request is one video request (the paper's R).
	Request = trace.Request
	// VideoID identifies a video file.
	VideoID = chunk.VideoID
	// ChunkID identifies one fixed-size chunk of a video.
	ChunkID = chunk.ID
	// Cache is the serve-or-redirect decision engine interface.
	Cache = core.Cache
	// Outcome reports what handling one request did.
	Outcome = core.Outcome
	// Decision is Serve or Redirect.
	Decision = core.Decision
	// CostModel carries alpha_F2R and the normalized C_F, C_R (Eq. 4).
	CostModel = cost.Model
	// Counters accumulates requested/filled/redirected bytes (Eq. 1).
	Counters = cost.Counters
	// ReplayResult is the outcome of replaying a trace.
	ReplayResult = sim.Result
	// ReplayOptions tunes a replay (bucketing, steady-state fraction).
	ReplayOptions = sim.Options
	// WorkloadProfile describes one synthetic server's request stream.
	WorkloadProfile = workload.Profile
	// Tier is one level of a multi-tier CDN deployment.
	Tier = hierarchy.Tier
	// HierarchyResult reports a multi-tier replay.
	HierarchyResult = hierarchy.Result
	// TraceReport characterizes a trace (popularity skew, diurnal
	// shape, prefix bias, sizes, churn).
	TraceReport = analyze.Report
)

// Decisions.
const (
	Serve    = core.Serve
	Redirect = core.Redirect
)

// NewCostModel normalizes alpha_F2R into per-byte costs (Eq. 4).
func NewCostModel(alpha float64) (CostModel, error) { return cost.NewModel(alpha) }

// CacheOptions configure NewCache.
type CacheOptions struct {
	// ChunkSize is K in bytes; 0 means DefaultChunkSize.
	ChunkSize int64
	// DiskBytes is the disk capacity, rounded down to whole chunks.
	DiskBytes int64
	// Alpha is alpha_F2R, given to a policy whose schema takes one and
	// whose spec leaves it unset; 0 keeps the schema's default (2).
	Alpha float64
	// Future is the full request sequence an offline spec ("psychic",
	// "belady") precomputes against; replay exactly it, in order.
	Future []Request
}

// NewCache builds the cache a policy spec names: a registered policy,
// optionally with parameters, as in "cafe", "xlru:alpha=1",
// "psychic:n=10", "lruq:q=8", "admit:inner=cafe,min_hits=2",
// "alphactl:inner=cafe,target_ingress=0.05" or
// "writelimit:inner=xlru,per_window=500,window=3600". A wrapper's
// "inner.*" keys configure the policy it wraps.
func NewCache(spec string, opt CacheOptions) (Cache, error) {
	if opt.ChunkSize == 0 {
		opt.ChunkSize = DefaultChunkSize
	}
	env := policy.Env{Alpha: opt.Alpha}
	if opt.Future != nil {
		env.Future = func() []Request { return opt.Future }
	}
	factory, err := policy.Factory(spec, env)
	if err != nil {
		return nil, err
	}
	cfg := core.Config{ChunkSize: opt.ChunkSize, DiskChunks: int(opt.DiskBytes / opt.ChunkSize)}
	return factory(0, cfg)
}

// Replay drives src through the cache under alpha_F2R and returns the
// paper's metrics (steady-state efficiency over the trace tail,
// ingress and redirect ratios, hourly series). A trace directory
// streams block by block, never materialized in memory.
func Replay(c Cache, src TraceSource, alpha float64, opt ReplayOptions) (*ReplayResult, error) {
	m, err := cost.NewModel(alpha)
	if err != nil {
		return nil, err
	}
	return sim.Replay(c, src, m, opt)
}

// WorkloadProfileByName looks up one of the six named profiles.
func WorkloadProfileByName(name string) (WorkloadProfile, error) {
	return workload.ProfileByName(name)
}

// GenerateWorkload synthesizes a request trace for the profile.
func GenerateWorkload(p WorkloadProfile, days int) ([]Request, error) {
	g, err := workload.NewGenerator(p)
	if err != nil {
		return nil, err
	}
	return g.Generate(days)
}

// ImportCSVTrace converts a CSV access log (header-driven column
// mapping; see internal/trace.ImportCSV) into a request trace.
func ImportCSVTrace(r io.Reader, opt CSVImportOptions) ([]Request, error) {
	return trace.ImportCSV(r, opt)
}

// CSVImportOptions tunes ImportCSVTrace.
type CSVImportOptions = trace.ImportOptions

// ReplayChain drives reqs through a linear chain of cache tiers: tier
// 0 sees user traffic, each tier's redirects feed the next, and the
// last tier's redirects count as origin traffic (Section 2's cache
// hierarchy).
func ReplayChain(tiers []Tier, reqs []Request) (*HierarchyResult, error) {
	return hierarchy.Chain(tiers, reqs)
}

// AnalyzeTrace characterizes a trace along the dimensions that drive
// video-cache behaviour. Size percentiles come from a log histogram
// (within ~2 %), as for a streamed trace directory.
func AnalyzeTrace(reqs []Request, chunkSize int64) (*TraceReport, error) {
	return analyze.AnalyzeSource(trace.Slice(reqs), chunkSize)
}

// Streaming trace types.
type (
	// TraceSource is a replayable trace: one time-ordered stream of
	// requests (SliceTrace wraps an in-memory slice).
	TraceSource = trace.Source
	// TraceCursor streams requests allocation-free via Next(*Request).
	TraceCursor = trace.Cursor
)

// SliceTrace wraps an in-memory trace as a TraceSource.
func SliceTrace(reqs []Request) TraceSource { return trace.Slice(reqs) }
