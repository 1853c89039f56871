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
//   - NewXLRU, NewCafe, NewPsychic, NewAlwaysFillLRU construct the
//     paper's caches (Sections 5, 6, 8) plus the classic always-fill
//     baseline. All satisfy the Cache interface.
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
//	cache, _ := videocdn.NewCafe(videocdn.DefaultChunkSize, 16<<30, 2, videocdn.CafeOptions{})
//	res, _ := videocdn.Replay(cache, requests, 2, videocdn.ReplayOptions{})
//	fmt.Println(res.Efficiency())
package videocdn

import (
	"fmt"
	"io"
	"net/http"

	"videocdn/internal/alphactl"
	"videocdn/internal/analyze"
	"videocdn/internal/cafe"
	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/cost"
	"videocdn/internal/edge"
	"videocdn/internal/hierarchy"
	"videocdn/internal/lp"
	_ "videocdn/internal/lruq" // registers "lru"
	"videocdn/internal/optimal"
	"videocdn/internal/policy"
	"videocdn/internal/prefetch"
	"videocdn/internal/psychic"
	"videocdn/internal/shard"
	"videocdn/internal/sim"
	"videocdn/internal/store"
	"videocdn/internal/trace"
	"videocdn/internal/workload"
	"videocdn/internal/writelimit"
	"videocdn/internal/xlru"
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
	// CafeOptions tunes the Cafe cache (gamma, ablation switches).
	CafeOptions = cafe.Options
	// PsychicOptions tunes the Psychic cache (future-list bound N).
	PsychicOptions = psychic.Options
	// ReplayResult is the outcome of replaying a trace.
	ReplayResult = sim.Result
	// ReplayOptions tunes a replay (bucketing, steady-state fraction).
	ReplayOptions = sim.Options
	// WorkloadProfile describes one synthetic server's request stream.
	WorkloadProfile = workload.Profile
	// Store holds chunk bytes for the HTTP edge server.
	Store = store.Store
	// EdgeConfig assembles an HTTP edge cache server.
	EdgeConfig = edge.Config
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
	// Prefetchable is a cache supporting out-of-band proactive fills
	// (implemented by Cafe).
	Prefetchable = prefetch.Prefetchable
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

// diskChunks converts a byte budget to whole chunks.
func diskChunks(chunkSize, diskBytes int64) int {
	return int(diskBytes / chunkSize)
}

// NewCostModel normalizes alpha_F2R into per-byte costs (Eq. 4).
func NewCostModel(alpha float64) (CostModel, error) { return cost.NewModel(alpha) }

// NewXLRU builds the paper's baseline xLRU cache (Section 5): an LRU
// chunk disk plus a file-level popularity gate scaled by alpha.
func NewXLRU(chunkSize, diskBytes int64, alpha float64) (Cache, error) {
	return xlru.New(core.Config{ChunkSize: chunkSize, DiskChunks: diskChunks(chunkSize, diskBytes)}, alpha)
}

// NewCafe builds the paper's Cafe cache (Section 6): chunk-aware,
// fill-efficient expected-cost admission.
func NewCafe(chunkSize, diskBytes int64, alpha float64, opt CafeOptions) (Cache, error) {
	return cafe.New(core.Config{ChunkSize: chunkSize, DiskChunks: diskChunks(chunkSize, diskBytes)}, alpha, opt)
}

// NewPsychic builds the offline greedy cache (Section 8) over the full
// future request sequence; replay it over exactly reqs, in order.
func NewPsychic(chunkSize, diskBytes int64, alpha float64, reqs []Request, opt PsychicOptions) (Cache, error) {
	return psychic.New(core.Config{ChunkSize: chunkSize, DiskChunks: diskChunks(chunkSize, diskBytes)}, alpha, reqs, opt)
}

// NewAlwaysFillLRU builds the classic proxy cache (fill every miss,
// never redirect) — the standard solution the paper improves on. It is
// the registered "lru" policy, LRU(q) with q = 1.
func NewAlwaysFillLRU(chunkSize, diskBytes int64) (Cache, error) {
	return policy.New("lru", core.Config{ChunkSize: chunkSize, DiskChunks: diskChunks(chunkSize, diskBytes)}, nil)
}

// Replay drives reqs through the cache under alpha_F2R and returns the
// paper's metrics (steady-state efficiency over the trace tail,
// ingress and redirect ratios, hourly series).
func Replay(c Cache, reqs []Request, alpha float64, opt ReplayOptions) (*ReplayResult, error) {
	m, err := cost.NewModel(alpha)
	if err != nil {
		return nil, err
	}
	return sim.Replay(c, trace.Slice(reqs), m, opt)
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
// alongside. The cache must be Prefetchable; NewCafe's concrete type
// is — construct it via NewCafePrefetchable.
func ReplayWithPrefetch(c Prefetchable, reqs []Request, alpha float64, pcfg PrefetchConfig, chunkSize int64) (*PrefetchResult, error) {
	m, err := cost.NewModel(alpha)
	if err != nil {
		return nil, err
	}
	return prefetch.Replay(c, reqs, m, pcfg, chunkSize)
}

// NewCafePrefetchable builds a Cafe cache typed as Prefetchable for
// use with ReplayWithPrefetch.
func NewCafePrefetchable(chunkSize, diskBytes int64, alpha float64, opt CafeOptions) (Prefetchable, error) {
	return cafe.New(core.Config{ChunkSize: chunkSize, DiskChunks: diskChunks(chunkSize, diskBytes)}, alpha, opt)
}

// NewShardedCafe builds a thread-safe cache of n (power of two) Cafe
// shards, each owning a hash bucket of the video-ID space and 1/n of
// the disk — the paper's footnote-2 hash-mod bucketizing practice
// applied in-process. Safe for concurrent use without external
// locking.
func NewShardedCafe(n int, chunkSize, diskBytes int64, alpha float64, opt CafeOptions) (Cache, error) {
	cfg := core.Config{ChunkSize: chunkSize, DiskChunks: diskChunks(chunkSize, diskBytes)}
	return shard.New(n, cfg, func(_ int, sub core.Config) (core.Cache, error) {
		return cafe.New(sub, alpha, opt)
	})
}

// NewShardedXLRU is NewShardedCafe for the xLRU baseline: n (power of
// two) xLRU shards behind one thread-safe cache.
func NewShardedXLRU(n int, chunkSize, diskBytes int64, alpha float64) (Cache, error) {
	cfg := core.Config{ChunkSize: chunkSize, DiskChunks: diskChunks(chunkSize, diskBytes)}
	return shard.New(n, cfg, func(_ int, sub core.Config) (core.Cache, error) {
		return xlru.New(sub, alpha)
	})
}

// ShardStat describes one shard's occupancy (see ShardStats).
type ShardStat = shard.Stat

// ShardStats reports per-shard chunk occupancy for a cache built by
// NewShardedCafe or NewShardedXLRU, so hash-balance across shards is
// observable. ok is false when the cache is not sharded.
func ShardStats(c Cache) (stats []ShardStat, ok bool) {
	g, isGroup := c.(*shard.Group)
	if !isGroup {
		return nil, false
	}
	return g.Stats(), true
}

// ReplayParallel replays reqs through a sharded cache (NewShardedCafe /
// NewShardedXLRU), partitioning the trace by video hash and driving
// each shard on its own worker (opt.Workers bounds the parallelism).
// The result is bit-identical to Replay of the same sharded cache; on a
// multi-core machine it is close to NumShards times faster.
func ReplayParallel(c Cache, reqs []Request, alpha float64, opt ReplayOptions) (*ReplayResult, error) {
	g, ok := c.(*shard.Group)
	if !ok {
		return nil, fmt.Errorf("videocdn: ReplayParallel needs a sharded cache (got %s); build one with NewShardedCafe or NewShardedXLRU", c.Name())
	}
	m, err := cost.NewModel(alpha)
	if err != nil {
		return nil, err
	}
	return sim.ReplayParallel(g, trace.Slice(reqs), m, opt)
}

// Streaming trace types: a columnar trace directory streams 100M+
// request replays at flat memory (bounded by per-cursor block buffers,
// independent of trace length).
type (
	// TraceSource is a replayable trace: per-shard streaming cursors
	// over an in-memory slice (SliceTrace) or an on-disk columnar
	// directory (OpenTraceDir).
	TraceSource = trace.Source
	// TraceCursor streams requests allocation-free via Next(*Request).
	TraceCursor = trace.Cursor
	// TraceDir is an opened columnar trace directory.
	TraceDir = trace.Dir
	// TraceDirConfig parameterizes CreateTraceDir (shard fan-out,
	// writer parts, block size).
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

// ReplaySource is Replay over any TraceSource: an opened trace
// directory replays block by block without ever materializing the
// trace in memory.
func ReplaySource(c Cache, src TraceSource, alpha float64, opt ReplayOptions) (*ReplayResult, error) {
	m, err := cost.NewModel(alpha)
	if err != nil {
		return nil, err
	}
	return sim.Replay(c, src, m, opt)
}

// ReplayParallelSource is ReplayParallel over any TraceSource. When
// the source is a trace directory sharded like the cache, each worker
// streams its shard's segment files directly — no partition pass, no
// sub-trace copies.
func ReplayParallelSource(c Cache, src TraceSource, alpha float64, opt ReplayOptions) (*ReplayResult, error) {
	g, ok := c.(*shard.Group)
	if !ok {
		return nil, fmt.Errorf("videocdn: ReplayParallelSource needs a sharded cache (got %s); build one with NewShardedCafe or NewShardedXLRU", c.Name())
	}
	m, err := cost.NewModel(alpha)
	if err != nil {
		return nil, err
	}
	return sim.ReplayParallel(g, src, m, opt)
}

// SaveCafeState serializes a Cafe cache's decision state (IAT table,
// cached-chunk set, clock) so a restart does not lose days of cache
// warmth. The cache must have been built by NewCafe (or friends).
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

// AlphaControlConfig tunes the Section-10 dynamic alpha control loop.
type AlphaControlConfig = alphactl.Config

// NewControlledCafe builds a Cafe cache whose alpha_F2R is steered at
// runtime by an ingress-tracking control loop (the paper's Section 10
// "dynamic adjustment ... in a small range through a control loop").
func NewControlledCafe(chunkSize, diskBytes int64, alpha float64, copt CafeOptions, ctl AlphaControlConfig) (Cache, error) {
	c, err := cafe.New(core.Config{ChunkSize: chunkSize, DiskChunks: diskChunks(chunkSize, diskBytes)}, alpha, copt)
	if err != nil {
		return nil, err
	}
	return alphactl.New(c, ctl)
}

// WriteBudget is a windowed chunk-write allowance modelling the
// disk-write constraint of Section 2.
type WriteBudget = writelimit.Budget

// NewWriteBudget allows perWindowChunks cache-fill writes per window.
func NewWriteBudget(perWindowChunks int, windowSeconds int64) (*WriteBudget, error) {
	return writelimit.NewBudget(perWindowChunks, windowSeconds)
}

// NewBudgetedCafe builds a Cafe cache whose fills are hard-capped by
// the given write budget; over-budget fills become redirects.
func NewBudgetedCafe(chunkSize, diskBytes int64, alpha float64, copt CafeOptions, budget *WriteBudget) (Cache, error) {
	if budget == nil {
		return nil, core.ErrNilBudget
	}
	c, err := cafe.New(core.Config{ChunkSize: chunkSize, DiskChunks: diskChunks(chunkSize, diskBytes)}, alpha, copt)
	if err != nil {
		return nil, err
	}
	c.SetFillGate(budget.Allow)
	return c, nil
}
