package edge

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/cost"
	"videocdn/internal/policy"
	_ "videocdn/internal/policy/all"
	"videocdn/internal/resilience"
	"videocdn/internal/shard"
	"videocdn/internal/store"
	"videocdn/internal/trace"
)

// Config assembles an edge cache server.
type Config struct {
	// Cache is the decision engine (xLRU, Cafe, ...) of a single-shard
	// server. Exactly one of Cache, CacheFactory and Policy must be
	// set; a prebuilt Cache implies Shards == 1 (the server serializes
	// access to it).
	Cache core.Cache
	// Policy names a registered cache policy (internal/policy); the
	// server builds one instance per shard through the registry — the
	// declarative alternative to Cache/CacheFactory. CacheConfig
	// supplies the capacity; Alpha is injected where the policy's
	// schema accepts it.
	Policy string
	// PolicyParams configures the named Policy (schema-validated by
	// the registry; string values are coerced, unknown keys rejected).
	PolicyParams policy.Params
	// Shards splits the server into independent lock domains, one per
	// hash bucket of the video-ID space (shard.ShardOf). Requests for
	// videos in different buckets never contend on a lock. Must be a
	// power of two; 0 means 1.
	Shards int
	// CacheFactory builds shard i's decision engine over its share of
	// the disk; required when Shards > 1 (each shard owns an
	// independent cache instance).
	CacheFactory func(shard int, cfg core.Config) (core.Cache, error)
	// CacheConfig is the server-total cache configuration handed to
	// CacheFactory: DiskChunks is divided evenly across shards, exactly
	// as shard.Group divides it. ChunkSize defaults to Config.ChunkSize
	// and must match it otherwise.
	CacheConfig core.Config
	// Store holds chunk bytes; its contents are kept in lockstep with
	// the caches' placement decisions.
	Store store.Store
	// OriginURL is the base URL of the origin (e.g. the NewOrigin
	// handler) used for cache fills.
	OriginURL string
	// RedirectURL is the base URL of the alternative server location
	// that declined requests are 302-redirected to (Section 2's
	// secondary map). The video path and query are preserved.
	RedirectURL string
	// ChunkSize must match the caches' configuration.
	ChunkSize int64
	// Alpha is the server's alpha_F2R, used for the /stats efficiency
	// report (the Cache already embeds it for decisions).
	Alpha float64
	// Clock returns the current trace time in seconds. Defaults to
	// wall-clock seconds since server start.
	Clock func() int64
	// Client performs origin fetches. Defaults to a client with a
	// 30-second timeout.
	Client *http.Client
	// FillTimeout bounds the total origin time spent on behalf of one
	// request (size lookup plus chunk fetches, retries included); each
	// coalesced fetch flight gets the same budget. Default 15s.
	FillTimeout time.Duration
	// Retry tunes origin retry/backoff (zero value → resilience
	// package defaults).
	Retry resilience.RetryPolicy
	// Breaker tunes the origin circuit breaker (zero value →
	// resilience package defaults).
	Breaker resilience.BreakerConfig
	// PeerFill, when set, is consulted on every miss before the origin
	// — the cluster tier's cheap intra-cluster fill (typically the
	// rendezvous-routed peer client). Peer-filled bytes are charged at
	// C_P = PeerAlpha·C_R instead of C_F; a peer-tier miss or failure
	// falls through to the origin path unchanged, so losing the peer
	// line degrades to exactly the standalone behavior.
	PeerFill PeerSource
	// PeerAlpha is alpha_P2R = C_P/C_R for the efficiency report.
	// Only meaningful with PeerFill set; defaults to 0.25 (a peer byte
	// costs a quarter of a redirect).
	PeerAlpha float64
	// NodeID names this node in a cluster (shown in /stats). Optional.
	NodeID string
	// HotBytes, when positive, layers a bounded RAM hot tier
	// (store.Tiered) over the configured store — the paper's
	// line-of-defense idea applied recursively inside the server: the
	// hottest chunks serve from memory and never touch the disk line.
	// It holds copies only of chunks the store cannot lend zero-copy
	// (fs, a slab without mmap); over a store that lends (Mem, the mmap
	// slab) it stays empty — one RAM copy per chunk.
	// Striping matches the shard count. Responses and the Eq. 2
	// accounting are byte-identical with the tier on or off; only the
	// tier counters in /stats differ.
	HotBytes int64
}

// fillStreamBuf is the fixed buffer a streaming fill pumps origin or
// peer bytes through on their way into the store, bounding fill memory
// at O(buffer) instead of O(chunk): large enough to keep syscall count
// low, small enough that a thousand concurrent fills cost ~¼ GB
// instead of a thousand chunks.
const fillStreamBuf = 256 << 10

// Server is the HTTP edge cache.
//
// Routes:
//
//	GET /video?v=<id>    serve (200/206), or 302 to RedirectURL
//	GET /stats           JSON counters and efficiency
//	GET /healthz         liveness
//
// The origin is treated as an unreliable upstream: fetches retry with
// backoff, a circuit breaker fails fast during sustained outages, and
// when the fill line of defense is lost the server degrades to the
// paper's second line — a 302 to the alternative location — instead of
// surfacing a 502.
//
// Concurrency: server state is split into Config.Shards independent
// shards keyed by shard.ShardOf(videoID) — the same placement function
// the parallel replay engine uses. Each shard owns its own cache
// instance, counters, single-flight table and size cache, so requests
// for different videos proceed in parallel and the only cross-shard
// state is the origin breaker/retrier (the origin is one upstream) and
// the pooled serve buffers. /stats and /metrics aggregate across
// shards; the Eq. 2 identity holds exactly on the aggregate because
// every byte is charged to exactly one shard's counters.
type Server struct {
	cfg      Config
	model    cost.Model
	mux      *http.ServeMux
	retrier  *resilience.Retrier
	breaker  *resilience.Breaker
	algoName string

	// The origin's /chunk, /video and /size URLs, parsed from
	// Config.OriginURL once; a fetch copies one and sets its query.
	chunkEndpoint, videoEndpoint, sizeEndpoint *url.URL

	shards    []*edgeShard
	sizeLimit int // per-shard size-cache bound

	// hotTier is the RAM hot tier when HotBytes > 0 (nil otherwise).
	// The store chain is Tiered(cold): reads borrow from cold, then
	// from RAM copies of what cold cannot lend, then copy out of cold.
	hotTier *store.Tiered
	// borrow is the store chain's zero-copy read capability, if any;
	// the serve path tries it before falling back to pooled-buffer Get.
	borrow store.BorrowGetter
	// section is the store chain's file-section capability: a
	// file-backed hit is handed to net/http as a bounded reader over
	// the chunk's own file so the kernel moves the bytes with
	// sendfile(2). Nil when the store cannot expose sections and on
	// non-unix builds.
	section store.SectionGetter
	// streamPut is the store chain's streaming-write capability; fills
	// pump bytes through a fixed scratch buffer instead of
	// materializing whole chunks. Nil when the store cannot take
	// streams.
	streamPut store.StreamPutter

	// bufs pools per-request chunk buffers (*[]byte, grown to chunk
	// size) so the steady-state serve path does not allocate.
	bufs sync.Pool

	// fillBufs pools the fixed-size scratch buffers streaming fills
	// pump bytes through; the in-flight/peak gauges let tests pin the
	// O(buffer) fill-memory bound empirically.
	fillBufs     sync.Pool
	fillInFlight atomic.Int64
	fillPeak     atomic.Int64

	servePath servePathCounters
}

// servePathCounters records which mechanical path bytes took.
// Deliberately NOT part of /stats or /metrics: those bodies must stay
// byte-identical across serve-path configurations (the differential
// suites diff them verbatim), so the counters are exposed to Go
// callers only, via ServePathStats.
type servePathCounters struct {
	sendfileChunks atomic.Int64 // chunks handed to the kernel as file sections
	borrowChunks   atomic.Int64 // chunks lent zero-copy from RAM/mmap
	copyChunks     atomic.Int64 // chunks copied through a pooled buffer
	streamFills    atomic.Int64 // chunks filled by streaming through a fixed scratch buffer
	bufferedFills  atomic.Int64 // chunks filled by materializing them whole in RAM
	rollbackBytes  atomic.Int64 // bytes failed runs had put and took back: bytes put minus Filled
}

// ServePathStats is a point-in-time snapshot of the serve/fill path
// counters plus the streaming-fill memory gauges.
type ServePathStats struct {
	SendfileChunks   int64
	BorrowChunks     int64
	CopyChunks       int64
	StreamFills      int64 // chunks, not runs
	BufferedFills    int64
	FillBufInFlight  int64 // scratch bytes currently checked out by fills
	FillBufPeakBytes int64 // high-water mark of the above
}

// ServePathStats snapshots the serve/fill path counters. Go API only —
// see servePathCounters for why this never appears in /stats.
func (s *Server) ServePathStats() ServePathStats {
	return ServePathStats{
		SendfileChunks:   s.servePath.sendfileChunks.Load(),
		BorrowChunks:     s.servePath.borrowChunks.Load(),
		CopyChunks:       s.servePath.copyChunks.Load(),
		StreamFills:      s.servePath.streamFills.Load(),
		BufferedFills:    s.servePath.bufferedFills.Load(),
		FillBufInFlight:  s.fillInFlight.Load(),
		FillBufPeakBytes: s.fillPeak.Load(),
	}
}

// edgeShard is one lock domain: the cache and every piece of mutable
// state keyed by the videos that hash to this shard. Counters are
// atomics — they are touched on every request, often outside the cache
// lock (fetch completions, degrade accounting), and aggregation only
// happens on /stats.
type edgeShard struct {
	mu       sync.Mutex // guards cache and lastTime
	cache    core.Cache
	lastTime int64 // clamp: caches reject time travel, concurrent stamping can reorder

	flightMu sync.Mutex         // coalesces concurrent origin fetches
	flights  map[uint64]*flight // by chunk key; a run's chunks share one flight

	sizeMu sync.RWMutex            // video sizes are immutable; cache them so
	sizes  map[chunk.VideoID]int64 // origin outages cannot break cache hits

	counters  atomicCounters
	served    atomic.Int64
	redirs    atomic.Int64
	degraded  atomic.Int64 // 302s issued because the origin was unusable
	selfHeals atomic.Int64 // chunks re-fetched because the store lost them
	fillErrs  atomic.Int64
	storeDels atomic.Int64 // store Delete failures (leaked bytes)

	// Peer tier counters (all zero on a standalone server).
	peerFills       atomic.Int64 // chunks filled from a cluster peer
	peerFillErrs    atomic.Int64 // peer-tier failures that fell through to origin
	peerFillMisses  atomic.Int64 // authoritative peer misses (origin was the right call)
	peerServes      atomic.Int64 // /peer/chunk responses fully delivered to peers
	peerServedBytes atomic.Int64 // bytes of those responses
}

// atomicCounters is cost.Counters with atomic fields — one per shard,
// summed into a plain cost.Counters for reporting.
type atomicCounters struct {
	requested  atomic.Int64
	filled     atomic.Int64
	redirected atomic.Int64
	peerFilled atomic.Int64
}

func (a *atomicCounters) add(c cost.Counters) {
	if c.Requested != 0 {
		a.requested.Add(c.Requested)
	}
	if c.Filled != 0 {
		a.filled.Add(c.Filled)
	}
	if c.Redirected != 0 {
		a.redirected.Add(c.Redirected)
	}
	if c.PeerFilled != 0 {
		a.peerFilled.Add(c.PeerFilled)
	}
}

func (a *atomicCounters) snapshot() cost.Counters {
	return cost.Counters{
		Requested:  a.requested.Load(),
		Filled:     a.filled.Load(),
		Redirected: a.redirected.Load(),
		PeerFilled: a.peerFilled.Load(),
	}
}

// flight is one in-progress fill of a run of consecutive chunks of one
// video, registered under every chunk of the run: requests for any of
// them wait on it instead of re-fetching, and wait for the whole run —
// done closes once, when the last chunk is in or the run has failed.
// It runs in its own goroutine with its own deadline, so a waiter's
// cancellation never poisons the other waiters.
type flight struct {
	run  []chunk.ID
	done chan struct{}
	err  error
}

// covers reports whether id is one of the flight's chunks.
func (f *flight) covers(id chunk.ID) bool {
	first := f.run[0]
	return id.Video == first.Video && id.Index >= first.Index && id.Index-first.Index < uint32(len(f.run))
}

// fillCtx lazily materializes a request's origin-fill deadline. Pure
// cache hits never talk to the origin, so they should not pay for a
// timer and context allocation; the first fill/size lookup creates the
// context, done releases it.
type fillCtx struct {
	r       *http.Request
	timeout time.Duration
	ctx     context.Context
	cancel  context.CancelFunc
}

func (f *fillCtx) get() context.Context {
	if f.ctx == nil {
		f.ctx, f.cancel = context.WithTimeout(f.r.Context(), f.timeout)
	}
	return f.ctx
}

func (f *fillCtx) done() {
	if f.cancel != nil {
		f.cancel()
	}
}

// NewServer validates the config and builds the edge server.
func NewServer(cfg Config) (*Server, error) {
	n := cfg.Shards
	if n == 0 {
		n = 1
	}
	if n < 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("edge: shard count must be a positive power of two, got %d", cfg.Shards)
	}
	selectors := 0
	for _, set := range []bool{cfg.Cache != nil, cfg.CacheFactory != nil, cfg.Policy != ""} {
		if set {
			selectors++
		}
	}
	switch {
	case selectors == 0:
		return nil, fmt.Errorf("edge: nil cache (set Cache, CacheFactory or Policy)")
	case selectors > 1:
		return nil, fmt.Errorf("edge: set exactly one of Cache, CacheFactory and Policy")
	case cfg.Cache != nil && n > 1:
		return nil, fmt.Errorf("edge: a prebuilt Cache implies one shard; use CacheFactory or Policy for %d shards", n)
	}
	if cfg.Policy != "" {
		// Resolve the named policy through the registry, once per
		// shard. The edge cannot supply a future trace, so offline
		// policies fail here with the registry's explanatory error.
		cfg.CacheFactory = func(_ int, sub core.Config) (core.Cache, error) {
			return policy.NewWithEnv(cfg.Policy, sub, policy.Env{Alpha: cfg.Alpha}, cfg.PolicyParams)
		}
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("edge: nil store")
	}
	if cfg.OriginURL == "" {
		return nil, fmt.Errorf("edge: origin URL required")
	}
	var endpoints [3]*url.URL
	for i, route := range []string{"/chunk", "/video", "/size"} {
		var err error
		if endpoints[i], err = url.Parse(cfg.OriginURL + route); err != nil {
			return nil, fmt.Errorf("edge: origin URL: %w", err)
		}
	}
	if cfg.RedirectURL == "" {
		return nil, fmt.Errorf("edge: redirect URL required")
	}
	if cfg.ChunkSize <= 0 {
		return nil, fmt.Errorf("edge: chunk size must be positive")
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 1
	}
	model, err := cost.NewModel(cfg.Alpha)
	if err != nil {
		return nil, err
	}
	if cfg.PeerFill != nil {
		if cfg.PeerAlpha == 0 {
			cfg.PeerAlpha = 0.25
		}
		if model, err = model.WithPeer(cfg.PeerAlpha); err != nil {
			return nil, err
		}
	}
	if cfg.Clock == nil {
		start := time.Now()
		cfg.Clock = func() int64 { return int64(time.Since(start) / time.Second) }
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if cfg.FillTimeout <= 0 {
		cfg.FillTimeout = 15 * time.Second
	}

	caches := make([]core.Cache, n)
	if cfg.Cache != nil {
		caches[0] = cfg.Cache
	} else {
		cc := cfg.CacheConfig
		if cc.ChunkSize == 0 {
			cc.ChunkSize = cfg.ChunkSize
		}
		if cc.ChunkSize != cfg.ChunkSize {
			return nil, fmt.Errorf("edge: CacheConfig.ChunkSize %d != ChunkSize %d", cc.ChunkSize, cfg.ChunkSize)
		}
		if err := cc.Validate(); err != nil {
			return nil, err
		}
		per := cc.DiskChunks / n
		if per < 1 {
			return nil, fmt.Errorf("edge: %d-chunk disk cannot be split %d ways", cc.DiskChunks, n)
		}
		for i := range caches {
			sub := cc
			sub.DiskChunks = per
			c, err := cfg.CacheFactory(i, sub)
			if err != nil {
				return nil, fmt.Errorf("edge: shard %d: %w", i, err)
			}
			if c == nil {
				return nil, fmt.Errorf("edge: shard %d: factory returned nil", i)
			}
			caches[i] = c
		}
	}

	s := &Server{
		cfg: cfg, model: model, mux: http.NewServeMux(),
		retrier:   resilience.NewRetrier(cfg.Retry),
		breaker:   resilience.NewBreaker(cfg.Breaker),
		shards:    make([]*edgeShard, n),
		sizeLimit: maxSizeCacheEntries / n,

		chunkEndpoint: endpoints[0], videoEndpoint: endpoints[1], sizeEndpoint: endpoints[2],
	}
	for i := range s.shards {
		s.shards[i] = &edgeShard{
			cache:   caches[i],
			flights: make(map[uint64]*flight),
			sizes:   make(map[chunk.VideoID]int64),
		}
	}
	s.algoName = caches[0].Name()
	if n > 1 {
		s.algoName = fmt.Sprintf("%s×%d", s.algoName, n)
	}
	if cfg.HotBytes > 0 {
		// One tier stripe per shard mirrors the lock layout.
		s.hotTier = store.NewTiered(s.cfg.Store, store.TieredConfig{
			HotBytes: cfg.HotBytes,
			Stripes:  n,
		})
		s.cfg.Store = s.hotTier
	}
	s.borrow, _ = s.cfg.Store.(store.BorrowGetter)
	if sendfileSupported {
		s.section, _ = s.cfg.Store.(store.SectionGetter)
	}
	s.streamPut, _ = s.cfg.Store.(store.StreamPutter)
	s.mux.HandleFunc("/video", s.handleVideo)
	s.mux.HandleFunc("/peer/chunk", s.handlePeerChunk)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/prefetch", s.handlePrefetch)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return s, nil
}

// shardOf returns the lock domain owning video v.
func (s *Server) shardOf(v chunk.VideoID) *edgeShard {
	return s.shards[shard.ShardOf(v, len(s.shards))]
}

// NumShards returns the server's shard count.
func (s *Server) NumShards() int { return len(s.shards) }

// prefetcher is the optional capability some caches (Cafe) implement
// for proactive, popularity-gated fills (the paper's Section 10
// "proactive caching").
type prefetcher interface {
	PrefetchChunk(id chunk.ID, now int64) (admitted bool, evicted []chunk.ID)
	HighestCachedIndex(v chunk.VideoID) (uint32, bool)
}

// forgetter is the optional capability to undo a chunk admission whose
// cache fill failed, keeping the cache's bookkeeping consistent with
// the store (all algorithms in this repository implement it).
type forgetter interface {
	Forget(id chunk.ID)
}

// handlePrefetch serves POST /prefetch?v=<id>&chunks=<n>: sequential
// read-ahead of up to n chunks past the video's highest cached index.
// Responds 501 when the algorithm does not support prefetching, 200
// with "accepted <k>" otherwise. Operators call this from off-peak
// cron jobs to spend spare ingress.
func (s *Server) handlePrefetch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	if _, ok := s.shards[0].cache.(prefetcher); !ok {
		http.Error(w, fmt.Sprintf("algorithm %q does not support prefetch", s.shards[0].cache.Name()),
			http.StatusNotImplemented)
		return
	}
	v, err := parseVideo(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	n := 1
	if qs := queryParam(r, "chunks"); qs != "" {
		if n, err = strconv.Atoi(qs); err != nil || n < 1 || n > 1024 {
			http.Error(w, "chunks must be in [1,1024]", http.StatusBadRequest)
			return
		}
	}
	sh := s.shardOf(v)
	p := sh.cache.(prefetcher) // same algorithm on every shard
	fc := fillCtx{r: r, timeout: s.cfg.FillTimeout}
	defer fc.done()
	size, err := s.originSize(&fc, sh, v)
	if err != nil {
		http.Error(w, "origin: "+err.Error(), http.StatusBadGateway)
		return
	}
	maxChunk := uint32((size - 1) / s.cfg.ChunkSize)
	now := s.cfg.Clock()

	accepted := 0
	for i := 0; i < n; i++ {
		sh.mu.Lock()
		if now < sh.lastTime {
			now = sh.lastTime
		}
		sh.lastTime = now
		hi, ok := p.HighestCachedIndex(v)
		if !ok || hi >= maxChunk {
			sh.mu.Unlock()
			break
		}
		id := chunk.ID{Video: v, Index: hi + 1}
		admitted, evicted := p.PrefetchChunk(id, now)
		sh.mu.Unlock()
		// The displacement stands whether or not the fill below
		// succeeds: mirror it in the store immediately, exactly as
		// handleVideo mirrors EvictedIDs, so no displaced bytes squat
		// in the store.
		s.deleteChunks(sh, evicted)
		if !admitted {
			break
		}
		// Ingress accounting happens inside the fetch with the chunk's
		// actual byte count (a tail chunk is shorter than ChunkSize).
		if _, err := s.fill(&fc, sh, []chunk.ID{id}); err != nil {
			sh.fillErrs.Add(1)
			s.undoAdmission(sh, []chunk.ID{id})
			http.Error(w, "cache fill: "+err.Error(), http.StatusBadGateway)
			return
		}
		accepted++
	}
	fmt.Fprintf(w, "accepted %d\n", accepted)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) handleVideo(w http.ResponseWriter, r *http.Request) {
	v, err := parseVideo(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	sh := s.shardOf(v)
	fc := fillCtx{r: r, timeout: s.cfg.FillTimeout}
	defer fc.done()
	size, err := s.originSize(&fc, sh, v)
	if err != nil {
		if resilience.IsPermanent(err) {
			// The origin is alive and said no (e.g. unknown video);
			// the alternative location would fare no better.
			http.Error(w, "origin: "+err.Error(), http.StatusBadGateway)
			return
		}
		// Origin unreachable and size unknown: fall back to the second
		// line of defense.
		s.degrade(w, r, sh, requestBytesHint(r))
		return
	}
	b0, b1, err := parseRange(r, size)
	if err != nil {
		http.Error(w, err.Error(), http.StatusRequestedRangeNotSatisfiable)
		return
	}
	req := trace.Request{Time: s.cfg.Clock(), Video: v, Start: b0, End: b1}

	sh.mu.Lock()
	// Concurrent requests stamp their time before contending on the
	// shard lock, so a shard can observe slightly out-of-order
	// timestamps; clamp to its high-water mark (the skew is bounded by
	// lock hold times, far below the seconds granularity the
	// algorithms reason at).
	if req.Time < sh.lastTime {
		req.Time = sh.lastTime
	}
	sh.lastTime = req.Time
	out := sh.cache.HandleRequest(req)
	// The IDs are the cache's until its next request, and a detached
	// flight reads its run after this request may have returned: copy
	// them to plain heap memory while the lock still holds them.
	filled := append([]chunk.ID(nil), out.FilledIDs...)
	evicted := append([]chunk.ID(nil), out.EvictedIDs...)
	sh.mu.Unlock()

	if out.Decision == core.Redirect {
		sh.redirs.Add(1)
		sh.counters.add(cost.Counters{Requested: req.Bytes(), Redirected: req.Bytes()})
		http.Redirect(w, r, s.cfg.RedirectURL+r.URL.RequestURI(), http.StatusFound)
		return
	}

	// The eviction decision stands however the fills go: mirror it in
	// the store first so cache and store agree.
	s.deleteChunks(sh, evicted)

	// Materialize the fills, one origin request per run of consecutive
	// chunks. A failed run (after retries, or fast because the breaker
	// is open) rolls back its own admissions and those of the runs
	// after it, and degrades the request to a redirect — the client
	// never sees a 502 for an origin problem.
	if i, err := s.fill(&fc, sh, filled); err != nil {
		sh.fillErrs.Add(1)
		s.undoAdmission(sh, filled[i:])
		s.degrade(w, r, sh, req.Bytes())
		return
	}

	// Preflight: every chunk of the range must have bytes before the
	// response commits to a 200 — a cache-claimed chunk missing from
	// the store (lost write, admission from a degraded request) is
	// re-fetched now, while the redirect fallback is still available.
	k := s.cfg.ChunkSize
	for c := uint32(b0 / k); c <= uint32(b1/k); c++ {
		id := chunk.ID{Video: v, Index: c}
		if s.cfg.Store.Has(id) {
			continue
		}
		if err := s.heal(&fc, sh, id); err != nil {
			sh.fillErrs.Add(1)
			s.undoAdmission(sh, []chunk.ID{id})
			s.degrade(w, r, sh, req.Bytes())
			return
		}
	}

	sh.served.Add(1)
	// Filled bytes are charged where the fetches succeed; here only the
	// egress side of Eq. 2 is recorded.
	sh.counters.requested.Add(req.Bytes())

	w.Header().Set("Content-Type", "video/mp4")
	w.Header().Set("Content-Length", strconv.FormatInt(b1-b0+1, 10))
	if b0 != 0 || b1 != size-1 {
		w.Header().Set("Content-Range", contentRange(b0, b1, size))
		w.WriteHeader(http.StatusPartialContent)
	}
	if err := s.stream(&fc, sh, w, s.sectionWriter(w), v, b0, b1); err != nil {
		return // client gone or store hiccup after headers; nothing to do
	}
}

// sectionWriter returns w as the io.ReaderFrom file sections are sent
// through — the response writer takes over the copy and file-backed
// chunks go to the kernel sendfile path — or nil when the store chain
// exposes no sections or w cannot take them.
func (s *Server) sectionWriter(w http.ResponseWriter) io.ReaderFrom {
	if s.section == nil {
		return nil
	}
	rf, _ := w.(io.ReaderFrom)
	return rf
}

// degrade answers a request whose fill path is unusable with a 302 to
// the alternative location (the paper's always-available second line
// of defense) instead of a 502. The bytes are charged as Redirected;
// both sides of Eq. 2 receive the same value, so the accounting
// identity Requested == served + Redirected holds whatever happens.
func (s *Server) degrade(w http.ResponseWriter, r *http.Request, sh *edgeShard, bytes int64) {
	sh.redirs.Add(1)
	sh.degraded.Add(1)
	sh.counters.add(cost.Counters{Requested: bytes, Redirected: bytes})
	http.Redirect(w, r, s.cfg.RedirectURL+r.URL.RequestURI(), http.StatusFound)
}

// undoAdmission rolls back chunk admissions whose fills did not
// complete: the cache forgets the chunks (keeping its popularity
// bookkeeping) and any stray store bytes are dropped. Best-effort — a
// concurrent re-admission can legitimately race this, and the serving
// path's preflight self-heal reconciles any leftover divergence.
func (s *Server) undoAdmission(sh *edgeShard, ids []chunk.ID) {
	if len(ids) == 0 {
		return
	}
	if f, ok := sh.cache.(forgetter); ok {
		sh.mu.Lock()
		for _, id := range ids {
			f.Forget(id)
		}
		sh.mu.Unlock()
	}
	s.deleteChunks(sh, ids)
}

// deleteChunks drops chunks from the store, counting the failures
// (leaked bytes).
func (s *Server) deleteChunks(sh *edgeShard, ids []chunk.ID) {
	for _, id := range ids {
		if err := s.cfg.Store.Delete(id); err != nil {
			sh.storeDels.Add(1)
		}
	}
}

// HotTier returns the RAM hot tier, or nil when Config.HotBytes is 0.
// The model-based oracle uses it to check the two-tier coherence
// invariant (hot keyset ⊆ cold, byte-identical content).
func (s *Server) HotTier() *store.Tiered { return s.hotTier }

// Close is the shutdown hook of cmd/cdnserver and bench/. Every fill
// commits on the serve path, so there is nothing to drain.
func (s *Server) Close() error { return nil }

// requestBytesHint returns the request's byte length when it is
// explicit in the request itself (no video size needed), else 0. Used
// only for degrade accounting while the origin is down and the size
// unknown; the same value lands on both sides of Eq. 2, so the
// bookkeeping stays consistent either way.
func requestBytesHint(r *http.Request) int64 {
	if h := r.Header.Get("Range"); h != "" {
		var a, b int64
		if n, _ := fmt.Sscanf(h, "bytes=%d-%d", &a, &b); n == 2 && a >= 0 && b >= a {
			return b - a + 1
		}
		return 0
	}
	a, err1 := strconv.ParseInt(queryParam(r, "start"), 10, 64)
	b, err2 := strconv.ParseInt(queryParam(r, "end"), 10, 64)
	if err1 == nil && err2 == nil && a >= 0 && b >= a {
		return b - a + 1
	}
	return 0
}

// StreamRange writes bytes [b0, b1] of video v from the chunk store to
// w: the byte-moving half of the cache-hit serve path (pooled chunk
// buffer, zero steady-state heap allocations), without HTTP parsing or
// decision-engine involvement. Chunks the store lost self-heal from
// origin exactly as in normal serving. It exists for the benchmarks
// and alloc pins (BenchmarkHitStream, TestStreamRangeZeroAllocs) that
// measure the serve path without net/http noise; it does not touch the
// Eq. 2 counters — callers must have driven the decision engine
// already.
func (s *Server) StreamRange(ctx context.Context, w io.Writer, v chunk.VideoID, b0, b1 int64) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if b0 < 0 || b1 < b0 {
		return fmt.Errorf("edge: bad range [%d, %d]", b0, b1)
	}
	fc := fillCtx{ctx: ctx}
	// nil ReaderFrom: the benchmark entrypoint always takes the
	// borrow/copy path — its callers hand in plain io.Writers, and the
	// zero-alloc guarantee is part of its contract.
	return s.stream(&fc, s.shardOf(v), w, nil, v, b0, b1)
}

// stream writes [b0,b1] of the video from the chunk store, each chunk
// by the read ladder of chunkReader.open. rf is non-nil only when
// s.section is set and the writer can take over the copy (net/http's
// ResponseWriter).
func (s *Server) stream(fc *fillCtx, sh *edgeShard, w io.Writer, rf io.ReaderFrom, v chunk.VideoID, b0, b1 int64) error {
	cr := chunkReader{s: s, rf: rf}
	defer cr.close()
	k := s.cfg.ChunkSize
	for c := uint32(b0 / k); c <= uint32(b1/k); c++ {
		id := chunk.ID{Video: v, Index: c}
		view, err := cr.open(id)
		if err != nil {
			// The cache believed the chunk was present but the store
			// disagrees (e.g. lost to a concurrent rollback since the
			// preflight). Self-heal from origin; this is real ingress
			// and is charged inside the fetch.
			if err2 := s.heal(fc, sh, id); err2 != nil {
				// Charged here so the stream entrypoint's ledger
				// matches handleVideo's preflight, which counts the
				// identical failure at its call site.
				sh.fillErrs.Add(1)
				return err
			}
			if view, err = cr.open(id); err != nil {
				return err
			}
		}
		if err := cr.write(w, view, int64(c)*k, b0, b1); err != nil {
			return err
		}
	}
	return nil
}

// chunkReader is what one response keeps across the chunks it reads
// from the store: the pooled copy buffer, fetched lazily so an
// all-borrowed response never touches the pool. rf is the response
// writer's ReaderFrom when file sections may go to the kernel, else
// nil.
type chunkReader struct {
	s  *Server
	rf io.ReaderFrom
	bp *[]byte
}

func (cr *chunkReader) close() {
	if cr.bp != nil {
		cr.s.bufs.Put(cr.bp)
	}
}

// chunkView is one stored chunk as the read ladder found it: a file
// section when sec has a file, else mem — a loan, or the pooled copy
// dressed as one (its Release is a no-op). path is the serve-path
// counter a complete write of the view moves.
type chunkView struct {
	mem  store.Borrowed
	sec  store.Section
	path *atomic.Int64
}

func (v chunkView) size() int64 {
	if v.sec.File() != nil {
		return v.sec.Size()
	}
	return int64(len(v.mem.Data))
}

// open finds chunk id by the cheapest read the store chain offers:
// bytes it lends zero-copy (RAM hot tier, mmap slab slot); else, when
// the writer can take it, the chunk's file section for sendfile(2);
// else a copy through the pooled chunk buffer. Every borrow or section
// failure — ErrNoBorrow, a RAM-resident chunk, a store that cannot
// expose files, a lost chunk — falls through to the copy, whose error
// is the verdict: the store has no readable bytes for id. The view is
// good until the next open.
func (cr *chunkReader) open(id chunk.ID) (chunkView, error) {
	s := cr.s
	if s.borrow != nil {
		if br, err := s.borrow.GetBorrow(id); err == nil {
			return chunkView{mem: br, path: &s.servePath.borrowChunks}, nil
		}
	}
	if cr.rf != nil {
		if sec, err := s.section.GetSection(id); err == nil {
			return chunkView{sec: sec, path: &s.servePath.sendfileChunks}, nil
		}
	}
	if cr.bp == nil {
		if cr.bp, _ = s.bufs.Get().(*[]byte); cr.bp == nil {
			cr.bp = new([]byte)
		}
	}
	data, err := s.cfg.Store.Get(id, (*cr.bp)[:0])
	if err != nil {
		return chunkView{}, err
	}
	*cr.bp = data[:0] // keep the grown capacity for the next chunk/request
	return chunkView{mem: store.Borrowed{Data: data}, path: &s.servePath.copyChunks}, nil
}

// write sends the part of view — whose first byte sits at absolute
// video offset lo — that lies inside [b0, b1], and releases the view.
func (cr *chunkReader) write(w io.Writer, view chunkView, lo, b0, b1 int64) error {
	var err error
	if view.sec.File() != nil {
		err = sendSection(cr.rf, view.sec, lo, b0, b1)
		view.sec.Release()
	} else {
		err = writeRange(w, view.mem.Data, lo, b0, b1)
		view.mem.Release()
	}
	if err == nil {
		view.path.Add(1)
	}
	return err
}

// sendSection writes the intersection of one chunk's file section with
// the request range [b0, b1] through rf — net/http's ResponseWriter,
// whose ReadFrom recognizes an *io.LimitedReader over an *os.File and
// moves the bytes with sendfile(2), never lifting them into userspace.
// lo is the chunk's absolute offset in the video. sendfile reads from
// the file description's current offset; the section's file is this
// response's alone until Release (the store's contract), so seeking it
// disturbs nobody.
func sendSection(rf io.ReaderFrom, sec store.Section, lo, b0, b1 int64) error {
	from, to := int64(0), sec.Size()-1
	if lo < b0 {
		from = b0 - lo
	}
	if lo+to > b1 {
		to = b1 - lo
	}
	if from > to {
		return nil
	}
	f := sec.File()
	if _, err := f.Seek(sec.Offset()+from, io.SeekStart); err != nil {
		return err
	}
	want := to - from + 1
	n, err := rf.ReadFrom(&io.LimitedReader{R: f, N: want})
	if err == nil && n != want {
		err = io.ErrShortWrite
	}
	return err
}

// writeRange writes the intersection of one chunk's bytes (whose first
// byte sits at absolute video offset lo) with the request range
// [b0, b1].
func writeRange(w io.Writer, data []byte, lo, b0, b1 int64) error {
	from, to := int64(0), int64(len(data)-1)
	if lo < b0 {
		from = b0 - lo
	}
	if lo+to > b1 {
		to = b1 - lo
	}
	if from > to {
		return nil
	}
	_, err := w.Write(data[from : to+1])
	return err
}

// fill brings ids, chunks of one video in ascending order, into the
// store. Each maximal run of consecutive indices not already being
// fetched becomes one flight — one origin range request — and the runs
// go one after another; for a chunk of a flight already under way the
// caller waits on that flight instead (duplicate fills waste exactly
// the ingress this CDN exists to save). A flight runs detached with
// its own FillTimeout budget; waiters that give up (ctx) leave it
// running for the others. On error fill returns the position in ids of
// the first chunk of the run that failed.
func (s *Server) fill(fc *fillCtx, sh *edgeShard, ids []chunk.ID) (int, error) {
	for i := 0; i < len(ids); {
		sh.flightMu.Lock()
		f := sh.flights[ids[i].Key()]
		if f == nil {
			j := i + 1
			for j < len(ids) && ids[j].Video == ids[i].Video && ids[j].Index == ids[j-1].Index+1 &&
				sh.flights[ids[j].Key()] == nil {
				j++
			}
			f = &flight{run: ids[i:j], done: make(chan struct{})}
			for _, id := range f.run {
				sh.flights[id.Key()] = f
			}
			go s.runFlight(sh, f)
		}
		sh.flightMu.Unlock()
		ctx := fc.get()
		select {
		case <-f.done:
		case <-ctx.Done():
			return i, ctx.Err()
		}
		if f.err != nil {
			return i, f.err
		}
		for i < len(ids) && f.covers(ids[i]) {
			i++
		}
	}
	return len(ids), nil
}

// heal re-fetches a chunk the cache claims but the store lost. A
// completed flight's bytes can vanish again before we read them — a
// concurrent request's admission rollback races the flight's orphan
// cleanup — so verify the store after each fill and retry a couple of
// times; the window is microseconds wide, so one retry all but
// guarantees convergence.
func (s *Server) heal(fc *fillCtx, sh *edgeShard, id chunk.ID) error {
	for attempt := 0; attempt < 3; attempt++ {
		if _, err := s.fill(fc, sh, []chunk.ID{id}); err != nil {
			return err
		}
		if s.cfg.Store.Has(id) {
			sh.selfHeals.Add(1)
			return nil
		}
	}
	return fmt.Errorf("edge: chunk %v lost to concurrent rollback", id)
}

// runFlight performs one coalesced fetch to completion.
func (s *Server) runFlight(sh *edgeShard, f *flight) {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.FillTimeout)
	defer cancel()
	f.err = s.fetchRun(ctx, sh, f.run)
	sh.flightMu.Lock()
	for _, id := range f.run {
		delete(sh.flights, id.Key())
	}
	sh.flightMu.Unlock()
	if f.err == nil {
		// An admission may have been rolled back while we fetched
		// (degraded request) or a chunk evicted by a concurrent
		// request; bytes the cache does not claim must not squat in
		// the store.
		var orphans []chunk.ID
		sh.mu.Lock()
		for _, id := range f.run {
			if !sh.cache.Contains(id) {
				orphans = append(orphans, id)
			}
		}
		sh.mu.Unlock()
		s.deleteChunks(sh, orphans)
	}
	close(f.done)
}

// fetchRun fills the chunks of one flight. Second line of defense
// first: a cluster peer that already paid the origin for a chunk can
// hand it over at C_P instead of C_F, so a peer tier is offered every
// chunk, one by one, and only the stretches it did not supply go to
// the origin, each as one run.
func (s *Server) fetchRun(ctx context.Context, sh *edgeShard, run []chunk.ID) error {
	if s.cfg.PeerFill == nil {
		return s.originRun(ctx, sh, run)
	}
	rest := 0 // run[rest:i] is what the peer tier has left to the origin
	for i, id := range run {
		done, err := s.peerFill(ctx, sh, id)
		if err != nil {
			return err
		}
		if !done {
			continue
		}
		if err := s.originRun(ctx, sh, run[rest:i]); err != nil {
			return err
		}
		rest = i + 1
	}
	return s.originRun(ctx, sh, run[rest:])
}

// originRun fetches a run of consecutive chunks with one origin
// request, retried as a whole: a byte range of /video, or, for a run
// of one, the chunk by index from /chunk — the same bytes at the same
// cost, and the request an origin wrapped per chunk (bench/'s
// corrupting origin) expects. A run is all or nothing: an attempt that
// fails takes back the chunks it had put, and Filled is charged once,
// after the last chunk, with the run's actual byte count (a tail chunk
// is short) — exactly the bytes of fully delivered fill bodies.
func (s *Server) originRun(ctx context.Context, sh *edgeShard, run []chunk.ID) error {
	if len(run) == 0 {
		return nil
	}
	k := s.cfg.ChunkSize
	endpoint := s.chunkEndpoint
	q := strconv.AppendUint(append(make([]byte, 0, 64), "v="...), uint64(run[0].Video), 10)
	if len(run) == 1 {
		q = strconv.AppendUint(append(q, "&c="...), uint64(run[0].Index), 10)
	} else {
		endpoint = s.videoEndpoint
		start := int64(run[0].Index) * k
		q = strconv.AppendInt(append(q, "&start="...), start, 10)
		q = strconv.AppendInt(append(q, "&end="...), start+int64(len(run))*k-1, 10)
	}
	u := withQuery(endpoint, q)
	return s.retrier.Do(ctx, func(ctx context.Context) error {
		if !s.breaker.Allow() {
			return resilience.ErrOpen
		}
		n, err := s.fillRun(ctx, u, run)
		s.breaker.Record(err == nil || resilience.IsPermanent(err))
		if err != nil {
			s.deleteChunks(sh, run[:n/k]) // only whole chunks precede a failure
			s.servePath.rollbackBytes.Add(n)
			return err
		}
		sh.counters.filled.Add(n)
		return nil
	})
}

// withQuery returns endpoint, one of the origin URLs NewServer parsed,
// with its query set to q — no formatting or URL parsing per fetch.
func withQuery(endpoint *url.URL, q []byte) *url.URL {
	u := *endpoint
	u.RawQuery = string(q)
	return &u
}

// originRequest builds the GET for a withQuery URL. The client only
// reads the URL, so the attempts of one fetch share it.
func originRequest(ctx context.Context, u *url.URL) *http.Request {
	req := http.Request{Method: http.MethodGet, URL: u, Host: u.Host, Header: make(http.Header)}
	return req.WithContext(ctx)
}

// originStatusError is the error for an origin status the caller cannot
// use: 5xx is retryable and counts against the breaker, anything else
// means the origin is alive but will never yield this (permanent).
func originStatusError(resp *http.Response) error {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 512))
	err := fmt.Errorf("origin returned %s", resp.Status)
	if resp.StatusCode >= 500 {
		return err
	}
	return resilience.Permanent(err)
}

// guardedGet performs one breaker-guarded origin round trip, returning
// at most limit body bytes; transport errors are retryable like a 5xx.
func (s *Server) guardedGet(ctx context.Context, u *url.URL, limit int64) ([]byte, error) {
	if !s.breaker.Allow() {
		return nil, resilience.ErrOpen
	}
	data, err := s.originGet(ctx, u, limit)
	s.breaker.Record(err == nil || resilience.IsPermanent(err))
	return data, err
}

func (s *Server) originGet(ctx context.Context, u *url.URL, limit int64) ([]byte, error) {
	resp, err := s.cfg.Client.Do(originRequest(ctx, u))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, originStatusError(resp)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, limit))
	if err != nil {
		return nil, err // truncated or stalled body: retryable
	}
	return data, nil
}

// trackReader distinguishes "the network reader failed" from "the
// store rejected the stream": PutStream returns one error, and fill
// classification (retryable vs Permanent, whose breaker gets blamed)
// depends on which side it came from. err records the first non-EOF
// read error. left, when positive, is how many more bytes the sender
// promised: a body ending before them has failed whatever the
// transport says, so no store is handed a short chunk as a whole one.
type trackReader struct {
	r    io.Reader
	left int64
	err  error
}

func (t *trackReader) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	t.left -= int64(n)
	if err == io.EOF && t.left > 0 {
		err = io.ErrUnexpectedEOF
	}
	if err != nil && err != io.EOF {
		t.err = err
	}
	return n, err
}

// fillRun performs one origin round trip for a run and walks the one
// body into the store chunk by chunk: ChunkSize bytes each, the last
// what remains of the Content-Length. A streaming store takes each
// chunk through the pooled scratch buffer, so fill memory is
// O(fillStreamBuf) whatever the run length; otherwise each chunk is
// read whole and Put. n is the bytes committed, also on error, for the
// caller to take back. 5xx and transport/truncation errors are
// retryable; 4xx, a body of the wrong length for the run and a store
// error are Permanent.
func (s *Server) fillRun(ctx context.Context, u *url.URL, run []chunk.ID) (n int64, err error) {
	resp, err := s.cfg.Client.Do(originRequest(ctx, u))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusPartialContent {
		return 0, originStatusError(resp)
	}
	k := s.cfg.ChunkSize
	total := resp.ContentLength
	if total <= int64(len(run)-1)*k || total > int64(len(run))*k {
		return 0, resilience.Permanent(fmt.Errorf("origin sent %d bytes for the %d chunks from %s", total, len(run), run[0]))
	}
	tr := &trackReader{r: resp.Body, left: total}
	body := io.LimitedReader{R: tr}
	scratch := s.fillScratchGet()
	defer s.fillScratchPut(scratch)
	for _, id := range run {
		want := min(k, total-n)
		body.N = want
		if _, err = s.putBody(id, &body, want, scratch); err != nil {
			if tr.err == nil {
				err = resilience.Permanent(fmt.Errorf("store: %w", err))
			}
			return n, err // tr.err: truncated or stalled body, retryable
		}
		n += want
	}
	s.fillsCounter().Add(int64(len(run)))
	return n, nil
}

// putBody commits r, a body of at most max bytes, as chunk id: the one
// place the two fill modes differ. A streaming store takes it through
// scratch; for any other the chunk is read whole, capped at max, and
// Put. More than max bytes is store.ErrTooLarge either way.
func (s *Server) putBody(id chunk.ID, r io.Reader, max int64, scratch *[]byte) (int64, error) {
	if s.streamPut != nil {
		return s.streamPut.PutStream(id, r, max, *scratch)
	}
	data, err := io.ReadAll(io.LimitReader(r, max+1))
	if err == nil && int64(len(data)) > max {
		err = store.ErrTooLarge
	}
	if err == nil {
		err = s.cfg.Store.Put(id, data)
	}
	if err != nil {
		return 0, err
	}
	return int64(len(data)), nil
}

// fillsCounter is the counter every committed fill chunk, origin or
// peer, lands in: one per chunk, by how putBody moved it.
func (s *Server) fillsCounter() *atomic.Int64 {
	if s.streamPut != nil {
		return &s.servePath.streamFills
	}
	return &s.servePath.bufferedFills
}

// fillScratchGet checks a streaming-fill scratch buffer out of the
// pool and maintains the in-flight/peak gauges that pin the O(buffer)
// fill-memory bound. Nil over a store that cannot stream.
func (s *Server) fillScratchGet() *[]byte {
	if s.streamPut == nil {
		return nil
	}
	bp, _ := s.fillBufs.Get().(*[]byte)
	if bp == nil {
		b := make([]byte, fillStreamBuf)
		bp = &b
	}
	cur := s.fillInFlight.Add(int64(len(*bp)))
	for {
		peak := s.fillPeak.Load()
		if cur <= peak || s.fillPeak.CompareAndSwap(peak, cur) {
			break
		}
	}
	return bp
}

func (s *Server) fillScratchPut(bp *[]byte) {
	if bp == nil {
		return
	}
	s.fillInFlight.Add(-int64(len(*bp)))
	s.fillBufs.Put(bp)
}

// originSize returns the video's size, consulting the shard's size
// cache first: sizes are immutable, and depending on the origin for
// every request would let an origin outage break even pure cache hits.
func (s *Server) originSize(fc *fillCtx, sh *edgeShard, v chunk.VideoID) (int64, error) {
	sh.sizeMu.RLock()
	size, ok := sh.sizes[v]
	sh.sizeMu.RUnlock()
	if ok {
		return size, nil
	}
	u := withQuery(s.sizeEndpoint, strconv.AppendUint(append(make([]byte, 0, 16), "v="...), uint64(v), 10))
	err := s.retrier.Do(fc.get(), func(ctx context.Context) error {
		body, err := s.guardedGet(ctx, u, 32)
		if err != nil {
			return err
		}
		n, err := strconv.ParseInt(string(body), 10, 64)
		if err != nil {
			return resilience.Permanent(err)
		}
		size = n
		return nil
	})
	if err != nil {
		sh.fillErrs.Add(1)
		return 0, err
	}
	sh.sizeMu.Lock()
	// Bound the cache: a few million entries across all shards is
	// plenty for any chunk disk this server could front; reset rather
	// than track recency — entries are one origin round-trip to
	// recover.
	if len(sh.sizes) >= s.sizeLimit {
		sh.sizes = make(map[chunk.VideoID]int64)
	}
	sh.sizes[v] = size
	sh.sizeMu.Unlock()
	return size, nil
}

// maxSizeCacheEntries caps the video-size cache across all shards
// (~16 bytes/entry).
const maxSizeCacheEntries = 1 << 21

// Stats is the JSON body of /stats.
type Stats struct {
	Algorithm         string  `json:"algorithm"`
	Alpha             float64 `json:"alpha_f2r"`
	Shards            int     `json:"shards"`
	Served            int64   `json:"served"`
	Redirected        int64   `json:"redirected"`
	DegradedRedirects int64   `json:"degraded_redirects"`
	RequestedBytes    int64   `json:"requested_bytes"`
	FilledBytes       int64   `json:"filled_bytes"`
	RedirectedBytes   int64   `json:"redirected_bytes"`
	Efficiency        float64 `json:"efficiency"`
	IngressRatio      float64 `json:"ingress_ratio"`
	RedirectRatio     float64 `json:"redirect_ratio"`
	CachedChunks      int     `json:"cached_chunks"`
	// ShardChunks is the per-shard occupancy behind CachedChunks, so
	// hash-balance across lock domains is observable.
	ShardChunks       []int  `json:"shard_chunks,omitempty"`
	FillErrors        int64  `json:"fill_errors"`
	SelfHeals         int64  `json:"self_heals"`
	StoreDeleteErrors int64  `json:"store_delete_errors"`
	OriginRetries     int64  `json:"origin_retries"`
	BreakerState      string `json:"breaker_state"`
	BreakerOpens      int64  `json:"breaker_opens"`
	// RAM hot tier counters (present only when HotBytes > 0). These are
	// observability only — the Eq. 2 identity and every response byte
	// are independent of which tier served.
	HotTier             bool  `json:"hot_tier,omitempty"`
	HotTierHits         int64 `json:"hot_tier_hits,omitempty"`
	ColdTierHits        int64 `json:"cold_tier_hits,omitempty"`
	TierMisses          int64 `json:"tier_misses,omitempty"`
	HotTierBytesServed  int64 `json:"hot_tier_bytes_served,omitempty"`
	ColdTierBytesServed int64 `json:"cold_tier_bytes_served,omitempty"`
	HotTierPromotions   int64 `json:"hot_tier_promotions,omitempty"`
	HotTierEvictions    int64 `json:"hot_tier_evictions,omitempty"`
	HotTierBytes        int64 `json:"hot_tier_bytes,omitempty"`
	HotTierChunks       int   `json:"hot_tier_chunks,omitempty"`
	// Cluster peer tier (all omitted on a standalone server, and on a
	// cluster node that never exchanged a peer byte — a 1-node cluster
	// reports byte-identically to a standalone server).
	NodeID           string  `json:"node_id,omitempty"`
	PeerFills        int64   `json:"peer_fills,omitempty"`
	PeerFillErrors   int64   `json:"peer_fill_errors,omitempty"`
	PeerFillMisses   int64   `json:"peer_fill_misses,omitempty"`
	PeerFilledBytes  int64   `json:"peer_filled_bytes,omitempty"`
	PeerServes       int64   `json:"peer_serves,omitempty"`
	PeerServedBytes  int64   `json:"peer_served_bytes,omitempty"`
	PeerIngressRatio float64 `json:"peer_ingress_ratio,omitempty"`
}

// SnapshotStats aggregates the per-shard counters into one report.
// Each shard's counters are read atomically, so the aggregate is
// per-shard-consistent: an in-flight request may be counted in one
// shard gauge and not yet in another, but once the server quiesces the
// sums are exact and the Eq. 2 identity holds to the last byte.
func (s *Server) SnapshotStats() Stats {
	st := Stats{
		Algorithm:   s.algoName,
		Alpha:       s.model.Alpha,
		Shards:      len(s.shards),
		ShardChunks: make([]int, len(s.shards)),
		NodeID:      s.cfg.NodeID,
	}
	var agg cost.Counters
	for i, sh := range s.shards {
		agg.Add(sh.counters.snapshot())
		st.Served += sh.served.Load()
		st.Redirected += sh.redirs.Load()
		st.DegradedRedirects += sh.degraded.Load()
		st.FillErrors += sh.fillErrs.Load()
		st.SelfHeals += sh.selfHeals.Load()
		st.StoreDeleteErrors += sh.storeDels.Load()
		st.PeerFills += sh.peerFills.Load()
		st.PeerFillErrors += sh.peerFillErrs.Load()
		st.PeerFillMisses += sh.peerFillMisses.Load()
		st.PeerServes += sh.peerServes.Load()
		st.PeerServedBytes += sh.peerServedBytes.Load()
		sh.mu.Lock()
		st.ShardChunks[i] = sh.cache.Len()
		sh.mu.Unlock()
		st.CachedChunks += st.ShardChunks[i]
	}
	st.RequestedBytes = agg.Requested
	st.FilledBytes = agg.Filled
	st.RedirectedBytes = agg.Redirected
	st.PeerFilledBytes = agg.PeerFilled
	st.Efficiency = agg.Efficiency(s.model)
	st.IngressRatio = agg.IngressRatio()
	st.RedirectRatio = agg.RedirectRatio()
	st.PeerIngressRatio = agg.PeerIngressRatio()
	st.OriginRetries = s.retrier.Retries()
	st.BreakerState = s.breaker.State().String()
	st.BreakerOpens = s.breaker.Opens()
	if s.hotTier != nil {
		ts := s.hotTier.Stats()
		st.HotTier = true
		st.HotTierHits = ts.HotHits
		st.ColdTierHits = ts.ColdHits
		st.TierMisses = ts.Misses
		st.HotTierBytesServed = ts.HotBytesServed
		st.ColdTierBytesServed = ts.ColdBytesServed
		st.HotTierPromotions = ts.Promotions
		st.HotTierEvictions = ts.Evictions
		st.HotTierBytes = ts.HotBytes
		st.HotTierChunks = ts.HotChunks
	}
	return st
}

// BreakerState exposes the origin breaker's current state (tests,
// operational introspection).
func (s *Server) BreakerState() resilience.State { return s.breaker.State() }

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(s.SnapshotStats()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleMetrics exposes the counters in the Prometheus text exposition
// format, so a stock Prometheus scrape of /metrics works without any
// client library.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := s.SnapshotStats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	labels := fmt.Sprintf("{algorithm=%q}", st.Algorithm)
	write := func(name, help, typ string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s%s %g\n", name, help, name, typ, name, labels, v)
	}
	write("videocdn_requests_served_total", "Requests served from this edge.", "counter", float64(st.Served))
	write("videocdn_requests_redirected_total", "Requests 302-redirected to the alternative location.", "counter", float64(st.Redirected))
	write("videocdn_degraded_redirects_total", "Redirects issued because the origin was unusable (fill line of defense lost).", "counter", float64(st.DegradedRedirects))
	write("videocdn_requested_bytes_total", "Bytes requested by clients.", "counter", float64(st.RequestedBytes))
	write("videocdn_filled_bytes_total", "Bytes cache-filled from origin (ingress).", "counter", float64(st.FilledBytes))
	write("videocdn_redirected_bytes_total", "Bytes redirected away.", "counter", float64(st.RedirectedBytes))
	write("videocdn_fill_errors_total", "Origin fetch failures (after retries).", "counter", float64(st.FillErrors))
	write("videocdn_self_heals_total", "Chunks re-fetched from origin because the store lost them.", "counter", float64(st.SelfHeals))
	write("videocdn_store_delete_errors_total", "Store delete failures (leaked bytes).", "counter", float64(st.StoreDeleteErrors))
	write("videocdn_origin_retries_total", "Origin fetch retry attempts.", "counter", float64(st.OriginRetries))
	write("videocdn_breaker_opens_total", "Times the origin circuit breaker tripped open.", "counter", float64(st.BreakerOpens))
	if st.HotTier {
		write("videocdn_hot_tier_hits_total", "Store reads served by the RAM hot tier.", "counter", float64(st.HotTierHits))
		write("videocdn_cold_tier_hits_total", "Store reads served by the cold tier (disk line).", "counter", float64(st.ColdTierHits))
		write("videocdn_tier_misses_total", "Store reads absent from both tiers.", "counter", float64(st.TierMisses))
		write("videocdn_hot_tier_bytes_served_total", "Bytes served from the RAM hot tier.", "counter", float64(st.HotTierBytesServed))
		write("videocdn_cold_tier_bytes_served_total", "Bytes served from the cold tier.", "counter", float64(st.ColdTierBytesServed))
		write("videocdn_hot_tier_promotions_total", "Chunks promoted into the RAM hot tier.", "counter", float64(st.HotTierPromotions))
		write("videocdn_hot_tier_evictions_total", "Chunks evicted from the RAM hot tier (demoted to cold-only).", "counter", float64(st.HotTierEvictions))
		write("videocdn_hot_tier_bytes", "Bytes currently resident in the RAM hot tier.", "gauge", float64(st.HotTierBytes))
		write("videocdn_hot_tier_chunks", "Chunks currently resident in the RAM hot tier.", "gauge", float64(st.HotTierChunks))
	}
	// Gated on activity, not configuration: a cluster node that never
	// exchanged a peer byte (a 1-node cluster in particular) reports
	// byte-identically to a standalone server, on /metrics as on
	// /stats.
	if st.PeerFills+st.PeerFillErrors+st.PeerFillMisses+st.PeerServes != 0 {
		write("videocdn_peer_fills_total", "Chunks filled from a cluster peer instead of origin.", "counter", float64(st.PeerFills))
		write("videocdn_peer_fill_errors_total", "Peer-tier failures that fell through to the origin path.", "counter", float64(st.PeerFillErrors))
		write("videocdn_peer_fill_misses_total", "Authoritative peer misses (origin fill was the right call).", "counter", float64(st.PeerFillMisses))
		write("videocdn_peer_filled_bytes_total", "Bytes filled from cluster peers (charged at C_P).", "counter", float64(st.PeerFilledBytes))
		write("videocdn_peer_serves_total", "Fully delivered /peer/chunk responses to cluster peers.", "counter", float64(st.PeerServes))
		write("videocdn_peer_served_bytes_total", "Bytes served to cluster peers.", "counter", float64(st.PeerServedBytes))
		write("videocdn_peer_ingress_ratio", "Peer-filled bytes over requested bytes.", "gauge", st.PeerIngressRatio)
	}
	write("videocdn_breaker_state", "Origin circuit breaker state (0 closed, 1 open, 2 half-open).", "gauge", float64(s.breaker.State()))
	write("videocdn_edge_shards", "Independent lock shards in this edge server.", "gauge", float64(st.Shards))
	write("videocdn_cached_chunks", "Chunks currently on disk.", "gauge", float64(st.CachedChunks))
	write("videocdn_cache_efficiency", "Cache efficiency per the paper's Eq. 2.", "gauge", st.Efficiency)
	write("videocdn_ingress_ratio", "Filled bytes over requested bytes.", "gauge", st.IngressRatio)
	write("videocdn_redirect_ratio", "Redirected bytes over requested bytes.", "gauge", st.RedirectRatio)
	for i, n := range st.ShardChunks {
		fmt.Fprintf(w, "videocdn_shard_cached_chunks{shard=\"%d\"} %d\n", i, n)
	}
}
