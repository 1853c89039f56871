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
//   - Replay drives a trace through a cache and reports efficiency,
//     ingress and redirect ratios (Section 9's metrics).
//   - GenerateWorkload synthesizes realistic six-region traces
//     substituting for the paper's proprietary logs.
//   - SolveOptimalLP computes the offline LP-relaxation efficiency
//     upper bound (Section 7) on down-sampled traces.
//   - NewEdgeServer / NewOriginServer stand up a real HTTP cache
//     hierarchy speaking byte ranges and 302 redirects.
//
// A minimal use:
//
//	cache, _ := videocdn.NewCache("cafe", videocdn.CacheOptions{DiskBytes: 16 << 30, Alpha: 2})
//	res, _ := videocdn.Replay(cache, videocdn.SliceTrace(requests), 2, videocdn.ReplayOptions{})
//	fmt.Println(res.Efficiency())
package videocdn

import (
	"fmt"
	"io"
	"net/http"

	"videocdn/internal/analyze"
	"videocdn/internal/cafe"
	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/cost"
	"videocdn/internal/edge"
	"videocdn/internal/hierarchy"
	"videocdn/internal/lp"
	"videocdn/internal/optimal"
	"videocdn/internal/policy"
	_ "videocdn/internal/policy/all"
	"videocdn/internal/prefetch"
	"videocdn/internal/sim"
	"videocdn/internal/store"
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
	// Store holds chunk bytes for the HTTP edge server.
	Store = store.Store
	// EdgeConfig assembles an HTTP edge cache server. Its
	// CacheFactory builds the server's one cache over its
	// CacheConfig.
	EdgeConfig = edge.Config
	// CacheConfig is one cache's chunk size and disk capacity in
	// chunks, as EdgeConfig.CacheFactory receives it.
	CacheConfig = core.Config
	// EdgeServer is the HTTP edge cache.
	EdgeServer = edge.Server
	// EdgeStats is the edge server's /stats payload.
	EdgeStats = edge.Stats
	// Catalog maps video IDs to sizes for the origin server.
	Catalog = edge.Catalog
	// OptimalInstance is one offline (Section 7) problem instance.
	OptimalInstance = optimal.Instance
	// OptimalResult carries the LP bound.
	OptimalResult = optimal.Result
	// Tier is one level of a multi-tier CDN deployment.
	Tier = hierarchy.Tier
	// HierarchyResult reports a multi-tier replay.
	HierarchyResult = hierarchy.Result
	// TraceReport characterizes a trace (popularity skew, diurnal
	// shape, prefix bias, sizes, churn).
	TraceReport = analyze.Report
	// PrefetchConfig tunes the off-peak prefetcher.
	PrefetchConfig = prefetch.Config
	// PrefetchResult bundles replay metrics with prefetch stats.
	PrefetchResult = prefetch.Result
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

// WorkloadProfiles returns the six world-region profiles mirroring the
// paper's six servers.
func WorkloadProfiles() []WorkloadProfile { return workload.Profiles() }

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

// WorkloadDirOptions tune GenerateWorkloadDir.
type WorkloadDirOptions = workload.DirGenOptions

// WorkloadStats summarizes a generated trace.
type WorkloadStats = workload.Stats

// GenerateWorkloadDir synthesizes a trace for the profile straight
// into a columnar trace directory: generation streams to disk (never
// holding the trace in memory) and runs Workers parts in parallel.
func GenerateWorkloadDir(p WorkloadProfile, days int, dir string, opt WorkloadDirOptions) (WorkloadStats, error) {
	return workload.GenerateDir(p, days, dir, opt)
}

// SolveOptimalLP computes the LP-relaxed Optimal Cache bound (Section
// 7) for a (small) instance: an upper bound on any algorithm's cache
// efficiency on that trace.
func SolveOptimalLP(inst OptimalInstance) (*OptimalResult, error) {
	return optimal.SolveLP(inst, optimal.SolveOptions{LP: lp.Options{}})
}

// ReadTrace parses a text-format trace ("t video b0 b1" per line).
func ReadTrace(r io.Reader) ([]Request, error) { return trace.ReadText(r) }

// ImportCSVTrace converts a CSV access log (header-driven column
// mapping; see internal/trace.ImportCSV) into a request trace.
func ImportCSVTrace(r io.Reader, opt CSVImportOptions) ([]Request, error) {
	return trace.ImportCSV(r, opt)
}

// CSVImportOptions tunes ImportCSVTrace.
type CSVImportOptions = trace.ImportOptions

// MergeTraces combines time-ordered traces into one stream (e.g. to
// build the view of a shared parent cache).
func MergeTraces(traces ...[]Request) []Request { return trace.Merge(traces...) }

// WriteTrace writes reqs to w in the text format ReadTrace parses.
func WriteTrace(w io.Writer, reqs []Request) error {
	return trace.WriteAll(trace.NewTextWriter(w), reqs)
}

// NewMemStore returns an in-memory chunk store.
func NewMemStore() Store { return store.NewMem() }

// NewFSStore returns a filesystem chunk store rooted at dir.
func NewFSStore(dir string) (Store, error) { return store.NewFS(dir) }

// NewEdgeServer builds the HTTP edge cache server.
func NewEdgeServer(cfg EdgeConfig) (*EdgeServer, error) { return edge.NewServer(cfg) }

// NewOriginServer builds the origin HTTP handler over a catalog.
func NewOriginServer(catalog Catalog, chunkSize int64) (http.Handler, error) {
	return edge.NewOrigin(catalog, chunkSize)
}

// DeterministicCatalog is an infinite hash-sized catalog for the
// origin.
type DeterministicCatalog = edge.DeterministicCatalog

// MapCatalog is a fixed catalog for the origin.
type MapCatalog = edge.MapCatalog

// ReplayChain drives reqs through a linear chain of cache tiers: tier
// 0 sees user traffic, each tier's redirects feed the next, and the
// last tier's redirects count as origin traffic (Section 2's cache
// hierarchy).
func ReplayChain(tiers []Tier, reqs []Request) (*HierarchyResult, error) {
	return hierarchy.Chain(tiers, reqs)
}

// ReplayFanIn drives reqs through a two-level tree: assign routes each
// request to an edge; every edge's redirects merge into the shared
// parent.
func ReplayFanIn(edges []Tier, parent Tier, reqs []Request, assign func(Request) int) (*HierarchyResult, error) {
	return hierarchy.FanIn(edges, parent, reqs, assign)
}

// AnalyzeTrace characterizes a trace along the dimensions that drive
// video-cache behaviour. Size percentiles come from a log histogram
// (within ~2 %), as for a streamed trace directory.
func AnalyzeTrace(reqs []Request, chunkSize int64) (*TraceReport, error) {
	return analyze.AnalyzeSource(trace.Slice(reqs), chunkSize)
}

// ReplayWithPrefetch replays like Replay but runs the off-peak
// proactive prefetcher (the paper's Section 10 "proactive caching")
// alongside. The cache must support prefetching, as a plain "cafe"
// does. The catalog's video sizes stop read-ahead at each video's last
// chunk, as an edge's /size does.
func ReplayWithPrefetch(c Cache, reqs []Request, alpha float64, pcfg PrefetchConfig, chunkSize int64, sizes Catalog) (*PrefetchResult, error) {
	p, ok := c.(prefetch.Prefetchable)
	if !ok {
		return nil, fmt.Errorf("videocdn: %s does not prefetch", c.Name())
	}
	m, err := cost.NewModel(alpha)
	if err != nil {
		return nil, err
	}
	return prefetch.Replay(p, reqs, m, pcfg, chunkSize, sizes)
}

// Streaming trace types: a columnar trace directory streams 100M+
// request replays at flat memory (bounded by per-cursor block buffers,
// independent of trace length).
type (
	// TraceSource is a replayable trace: one time-ordered stream of
	// requests over an in-memory slice (SliceTrace) or an on-disk
	// columnar directory (OpenTraceDir).
	TraceSource = trace.Source
	// TraceCursor streams requests allocation-free via Next(*Request).
	TraceCursor = trace.Cursor
	// TraceDir is an opened columnar trace directory.
	TraceDir = trace.Dir
	// TraceDirConfig parameterizes CreateTraceDir (writer parts,
	// block size).
	TraceDirConfig = trace.DirConfig
)

// SliceTrace wraps an in-memory trace as a TraceSource.
func SliceTrace(reqs []Request) TraceSource { return trace.Slice(reqs) }

// OpenTraceDir opens a columnar trace directory for streaming replay.
func OpenTraceDir(dir string) (*TraceDir, error) { return trace.OpenDir(dir) }

// CreateTraceDir creates a columnar trace directory writer; stream
// requests in with Write (non-decreasing time) and finalize with
// Close.
func CreateTraceDir(dir string, cfg TraceDirConfig) (*trace.DirWriter, error) {
	return trace.CreateDir(dir, cfg)
}

// SaveCafeState serializes a Cafe cache's decision state (IAT table,
// cached-chunk set, clock) so a restart does not lose days of cache
// warmth. The cache must be a plain "cafe".
func SaveCafeState(c Cache, w io.Writer) error {
	cc, ok := c.(*cafe.Cache)
	if !ok {
		return fmt.Errorf("videocdn: %s does not support state snapshots (cafe only)", c.Name())
	}
	return cc.Save(w)
}

// LoadCafeState reconstructs a Cafe cache from a SaveCafeState
// snapshot, configuration included.
func LoadCafeState(r io.Reader) (Cache, error) { return cafe.Load(r) }
