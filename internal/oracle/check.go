package oracle

import (
	"bytes"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"time"

	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/edge"
	"videocdn/internal/policy"
	_ "videocdn/internal/policy/all"
	"videocdn/internal/resilience"
	"videocdn/internal/store"
)

// CheckConfig selects one cell of the scenario matrix and one seeded
// operation sequence.
type CheckConfig struct {
	// Algo is the cache policy, resolved through the registry
	// (internal/policy): any registered online policy works — the
	// model delegates admission to a second instance built by the
	// exact same factory.
	Algo string
	// PolicyParams configures the policy (schema-validated by the
	// registry). Both the real server's caches and the model's second
	// instances receive identical params.
	PolicyParams policy.Params
	// StoreKind is the byte store: "mem", "fs" or "slab".
	StoreKind string
	// HotBytes enables the RAM hot tier over the byte store with this
	// budget. 0 — the default — leaves the tier off. The tier must be
	// invisible to every modeled response and counter; it only adds the
	// two-tier coherence and one-copy invariants at quiescent points
	// (it fills over fs, and must stay empty over mem and the mmap slab,
	// which lend their bytes).
	HotBytes int64
	// Shards is the edge server's lock-shard count (power of two).
	Shards int
	// Seed fixes the operation sequence; every response and counter is
	// a pure function of (config, Seed).
	Seed int64
	// Ops is the number of generated operations.
	Ops int
	// ChunkSize is K in bytes. Default 1024 (small chunks keep the op
	// mix cheap while exercising multi-chunk ranges).
	ChunkSize int64
	// DiskChunks is the server-total disk capacity in chunks; must be
	// divisible by Shards. Default 16 per shard — small enough that the
	// generated workload overflows it and exercises eviction.
	DiskChunks int
	// Videos is the catalog size. Default 24.
	Videos int
	// Dir is the scratch directory for fs/slab stores (required for
	// those kinds, ignored for mem).
	Dir string
	// Progress, if set, is called periodically with (done, total) ops.
	Progress func(done, total int)
}

// Result summarizes one Check run.
type Result struct {
	Ops        int
	Gets       int
	Prefetches int
	Flushes    int
	Reopens    int
	// Status counts responses by class.
	OK200, Partial206, Found302, BadRequest400, Unsatisfiable416,
	NotImplemented501, BadGateway502, Other int
	// Digest is an FNV-64a hash over every response (status, Location,
	// body) and the final deterministic stats — two runs with the same
	// config and seed must produce the same digest bit for bit.
	Digest string
	// Stats is the server's final counter snapshot.
	Stats edge.Stats
	// PeakHotChunks is the most hot-tier residents any quiescent point
	// saw (Stats only covers the time since the last reopen): > 0 proves
	// the tier invariants were checked against a tier that held chunks.
	PeakHotChunks int
	// FailedOp is the index of the operation that diverged, -1 on a
	// clean run. Because operations are a pure function of the seed,
	// re-running with Ops = FailedOp+1 is the minimal reproduction.
	FailedOp int
}

func (r *Result) String() string {
	return fmt.Sprintf("ops=%d gets=%d prefetches=%d flushes=%d reopens=%d 200=%d 206=%d 302=%d 400=%d 416=%d 501=%d 502=%d digest=%s",
		r.Ops, r.Gets, r.Prefetches, r.Flushes, r.Reopens,
		r.OK200, r.Partial206, r.Found302, r.BadRequest400, r.Unsatisfiable416,
		r.NotImplemented501, r.BadGateway502, r.Digest)
}

// alpha is the fixed cost-model parameter for oracle runs (the paper's
// baseline alpha_F2R = 2).
const alpha = 2.0

// redirectBase is the alternative-location base URL handed to the
// server; the oracle only compares the composed Location strings.
const redirectBase = "http://alt.example:1"

// Check drives the real edge server and the reference model through
// the same seeded operation sequence, diffing every response and the
// full deterministic stats snapshot after every operation, and the
// store↔cache coherence invariants at every quiescent point. The first
// divergence aborts the run with an error naming the op index and
// seed; a nil error means zero diffs and zero invariant violations.
func Check(cfg CheckConfig) (*Result, error) {
	if cfg.ChunkSize == 0 {
		cfg.ChunkSize = 1024
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.DiskChunks == 0 {
		cfg.DiskChunks = 16 * cfg.Shards
	}
	if cfg.Videos == 0 {
		cfg.Videos = 24
	}
	if cfg.Ops <= 0 {
		return nil, fmt.Errorf("oracle: Ops must be positive")
	}
	if cfg.DiskChunks%cfg.Shards != 0 {
		return nil, fmt.Errorf("oracle: DiskChunks %d not divisible by %d shards", cfg.DiskChunks, cfg.Shards)
	}
	if (cfg.StoreKind == "fs" || cfg.StoreKind == "slab") && cfg.Dir == "" {
		return nil, fmt.Errorf("oracle: store kind %q needs Dir", cfg.StoreKind)
	}

	h := &harness{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), res: &Result{FailedOp: -1}, hash: fnv.New64a()}
	h.factory = func(_ int, sub core.Config) (core.Cache, error) {
		return policy.NewWithEnv(cfg.Algo, sub, policy.Env{Alpha: alpha}, cfg.PolicyParams)
	}
	h.perShard = core.Config{ChunkSize: cfg.ChunkSize, DiskChunks: cfg.DiskChunks / cfg.Shards}

	// The catalog is drawn from the seeded stream before any traffic:
	// a spread of sizes incl. sub-chunk videos, exact-multiple videos,
	// and one video far larger than the whole disk (so the policies'
	// redirect decision path gets steady deterministic exercise).
	catalog := edge.MapCatalog{}
	for v := 1; v <= cfg.Videos; v++ {
		chunks := 1 + h.rng.Int63n(10)
		tail := h.rng.Int63n(cfg.ChunkSize + 1) // 0 → exact multiple
		size := (chunks-1)*cfg.ChunkSize + tail
		if size == 0 {
			size = 1 + h.rng.Int63n(cfg.ChunkSize)
		}
		catalog[chunk.VideoID(v)] = size
	}
	h.bigVideo = chunk.VideoID(cfg.Videos + 1)
	catalog[h.bigVideo] = int64(3*cfg.DiskChunks) * cfg.ChunkSize
	h.catalog = catalog

	origin, err := edge.NewOrigin(catalog, cfg.ChunkSize)
	if err != nil {
		return nil, err
	}
	h.fault = edge.NewFaultOrigin(origin, edge.FaultConfig{Seed: cfg.Seed})
	h.originSrv = httptest.NewServer(h.fault)
	defer h.originSrv.Close()
	h.client = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{}}
	defer h.client.CloseIdleConnections()

	if err := h.openStore(); err != nil {
		return nil, err
	}
	h.model, err = newModel(cfg.Algo, cfg.Shards, h.perShard, h.factory, catalog, redirectBase, alpha)
	if err != nil {
		return nil, err
	}
	if err := h.buildServer(); err != nil {
		return nil, err
	}
	defer func() {
		h.server.Close()
		h.closeStore()
	}()

	for i := 0; i < cfg.Ops; i++ {
		h.op = i
		if err := h.step(); err != nil {
			h.res.FailedOp = i
			return h.res, fmt.Errorf("oracle[%s/%s/shards=%d seed=%d]: op %d: %w",
				cfg.Algo, cfg.StoreKind, cfg.Shards, cfg.Seed, i, err)
		}
		if cfg.Progress != nil && (i+1)%1000 == 0 {
			cfg.Progress(i+1, cfg.Ops)
		}
	}
	// Final quiescent point: diff and check coherence once more.
	if err := h.quiesce(); err != nil {
		return h.res, fmt.Errorf("oracle[%s/%s/shards=%d seed=%d]: final: %w",
			cfg.Algo, cfg.StoreKind, cfg.Shards, cfg.Seed, err)
	}
	st := h.server.SnapshotStats()
	fmt.Fprintf(h.hash, "final|%d|%d|%d|%d|%d|%d|%d|%d|%.17g|%d",
		st.Served, st.Redirected, st.DegradedRedirects, st.RequestedBytes, st.FilledBytes,
		st.RedirectedBytes, st.FillErrors, st.CachedChunks, st.Efficiency, len(h.model.store))
	h.res.Ops = cfg.Ops
	h.res.Digest = fmt.Sprintf("%016x", h.hash.Sum64())
	h.res.Stats = st
	return h.res, nil
}

// harness holds the real system under test and the model side by side.
type harness struct {
	cfg      CheckConfig
	rng      *rand.Rand
	factory  func(int, core.Config) (core.Cache, error)
	perShard core.Config
	catalog  edge.MapCatalog
	bigVideo chunk.VideoID

	fault     *edge.FaultOrigin
	originSrv *httptest.Server
	client    *http.Client
	clock     atomic.Int64
	raw       store.Store // the unwrapped store (the server adds the hot tier itself)
	server    *edge.Server
	model     *Model

	res      *Result
	hash     hash.Hash64
	op       int
	last     edge.Stats
	haveLast bool
	buf      []byte
}

func (h *harness) openStore() error {
	switch h.cfg.StoreKind {
	case "mem":
		h.raw = store.NewMem()
	case "fs":
		fs, err := store.NewFS(filepath.Join(h.cfg.Dir, "fs"))
		if err != nil {
			return err
		}
		h.raw = fs
	case "slab":
		// Mmap on: the borrow path (zero-copy serve) runs under the
		// oracle wherever the platform supports it.
		sl, err := store.NewSlab(filepath.Join(h.cfg.Dir, "slab"),
			store.SlabConfig{SlotBytes: h.cfg.ChunkSize, SegmentSlots: 16, Mmap: true})
		if err != nil {
			return err
		}
		h.raw = sl
	default:
		return fmt.Errorf("oracle: unknown store kind %q", h.cfg.StoreKind)
	}
	return nil
}

func (h *harness) closeStore() error {
	if c, ok := h.raw.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

func (h *harness) buildServer() error {
	srv, err := edge.NewServer(edge.Config{
		Shards:       h.cfg.Shards,
		CacheFactory: h.factory,
		CacheConfig:  core.Config{ChunkSize: h.cfg.ChunkSize, DiskChunks: h.cfg.DiskChunks},
		Store:        h.raw,
		OriginURL:    h.originSrv.URL,
		RedirectURL:  redirectBase,
		ChunkSize:    h.cfg.ChunkSize,
		Alpha:        alpha,
		Clock:        func() int64 { return h.clock.Load() },
		Client:       h.client,
		// Determinism pins: no retry sleeps (one attempt per origin
		// round trip) and a breaker that can never trip (its sample
		// window is unreachable), so request outcomes depend only on
		// the scripted fault phase — never on timing.
		Retry:    resilience.RetryPolicy{MaxAttempts: 1},
		Breaker:  resilience.BreakerConfig{MinSamples: 1 << 30},
		HotBytes: h.cfg.HotBytes,
	})
	if err != nil {
		return err
	}
	h.server = srv
	h.haveLast = false
	return nil
}

// step generates and executes one operation.
func (h *harness) step() error {
	switch p := h.rng.Intn(100); {
	case p < 52:
		return h.opGet()
	case p < 58:
		h.clock.Add(1 + h.rng.Int63n(600))
		h.model.now = h.clock.Load()
		return nil
	case p < 66:
		return h.opPrefetch()
	case p < 73:
		h.opPhase()
		return nil
	case p < 81:
		return h.opOdd()
	case p < 89:
		h.res.Flushes++
		return h.quiesce()
	case p < 93:
		return h.opEndpoints()
	case p < 96:
		return h.opReopen()
	default:
		return h.opGet()
	}
}

// pickVideo draws a catalog video with popularity skew (min of two
// uniforms), occasionally the larger-than-disk video.
func (h *harness) pickVideo() chunk.VideoID {
	if h.rng.Intn(20) == 0 {
		return h.bigVideo
	}
	a, b := h.rng.Intn(h.cfg.Videos), h.rng.Intn(h.cfg.Videos)
	if b < a {
		a = b
	}
	return chunk.VideoID(1 + a)
}

// genGet draws one GET operation spec against a known catalog video.
func (h *harness) genGet() getOp {
	op := getOp{video: h.pickVideo()}
	size := h.catalog[op.video]
	k := h.cfg.ChunkSize
	switch h.rng.Intn(8) {
	case 0:
		op.kind = rangeWhole
	case 1: // chunk-aligned query range
		op.kind = rangeQuery
		c0 := h.rng.Int63n((size + k - 1) / k)
		span := 1 + h.rng.Int63n(3)
		op.a = c0 * k
		op.b = (c0+span)*k - 1 // may exceed size: exercises clamping
	case 2:
		op.kind = rangeQuery
		op.a = h.rng.Int63n(size)
		op.b = op.a + h.rng.Int63n(size-op.a+k)
	case 3:
		op.kind = rangeQueryStart
		op.a = h.rng.Int63n(size)
	case 4:
		op.kind = rangeHeaderAB
		op.a = h.rng.Int63n(size)
		op.b = op.a + h.rng.Int63n(size-op.a+k)
	case 5:
		op.kind = rangeHeaderOpen
		op.a = h.rng.Int63n(size)
	case 6:
		op.kind = rangeSuffix
		op.a = 1 + h.rng.Int63n(size+k)
	default:
		op.kind = rangeWhole
	}
	return op
}

// request materializes the op as a target URL and optional Range
// header, exactly as a client would send it.
func (op getOp) request() (target, rangeHeader string) {
	switch op.kind {
	case rangeWhole:
		return fmt.Sprintf("/video?v=%d", op.video), ""
	case rangeQuery:
		return fmt.Sprintf("/video?v=%d&start=%d&end=%d", op.video, op.a, op.b), ""
	case rangeQueryStart:
		return fmt.Sprintf("/video?v=%d&start=%d", op.video, op.a), ""
	case rangeHeaderAB:
		return fmt.Sprintf("/video?v=%d", op.video), fmt.Sprintf("bytes=%d-%d", op.a, op.b)
	case rangeHeaderOpen:
		return fmt.Sprintf("/video?v=%d", op.video), fmt.Sprintf("bytes=%d-", op.a)
	case rangeSuffix:
		return fmt.Sprintf("/video?v=%d", op.video), fmt.Sprintf("bytes=-%d", op.a)
	default:
		panic("oracle: unknown range kind")
	}
}

// expectedBody materializes the deterministic content of [b0, b1].
func (h *harness) expectedBody(v chunk.VideoID, b0, b1 int64) []byte {
	k := h.cfg.ChunkSize
	size := h.catalog[v]
	out := make([]byte, 0, b1-b0+1)
	if cap(h.buf) < int(k) {
		h.buf = make([]byte, k)
	}
	for c := b0 / k; c <= b1/k; c++ {
		lo := c * k
		n := k
		if lo+n > size {
			n = size - lo
		}
		buf := h.buf[:n]
		edge.ChunkData(v, uint32(c), buf)
		from, to := int64(0), n-1
		if lo < b0 {
			from = b0 - lo
		}
		if lo+to > b1 {
			to = b1 - lo
		}
		out = append(out, buf[from:to+1]...)
	}
	return out
}

func (h *harness) opGet() error {
	op := h.genGet()
	target, rangeHeader := op.request()
	exp := h.model.handleGet(op, target, h.expectedBody)
	h.res.Gets++
	return h.drive(http.MethodGet, target, rangeHeader, exp)
}

func (h *harness) opPrefetch() error {
	v := h.pickVideo()
	n := 1 + h.rng.Intn(4)
	target := fmt.Sprintf("/prefetch?v=%d&chunks=%d", v, n)
	exp := h.model.handlePrefetch(v, n)
	h.res.Prefetches++
	return h.drive(http.MethodPost, target, "", exp)
}

// opOdd drives the error paths: unknown videos, malformed requests,
// unsatisfiable ranges, wrong methods. The model predicts each status.
func (h *harness) opOdd() error {
	switch h.rng.Intn(7) {
	case 0: // unknown video: 502 when the origin can say so, degrade in an outage
		v := chunk.VideoID(1_000_000 + h.rng.Intn(1000))
		op := getOp{video: v, kind: rangeWhole}
		if h.rng.Intn(2) == 0 {
			op.kind, op.a, op.b = rangeHeaderAB, 0, 4095 // carries a degrade byte hint
		}
		target, rangeHeader := op.request()
		return h.drive(http.MethodGet, target, rangeHeader, h.model.handleGet(op, target, h.expectedBody))
	case 1: // missing video id
		return h.drive(http.MethodGet, "/video", "", h.modelBadRequest())
	case 2: // non-numeric video id
		return h.drive(http.MethodGet, "/video?v=abc", "", h.modelBadRequest())
	case 3: // inverted or out-of-range query range → 416 (size permitting)
		op := getOp{video: h.pickVideo(), kind: rangeQuery}
		size := h.catalog[op.video]
		if h.rng.Intn(2) == 0 {
			op.a, op.b = size+int64(h.rng.Intn(5)), size+10 // beyond EOF
		} else {
			op.a, op.b = 5, 1 // inverted
		}
		target, _ := op.request()
		return h.drive(http.MethodGet, target, "", h.model.handleGet(op, target, h.expectedBody))
	case 4: // multi-range / junk Range headers → 416
		v := h.pickVideo()
		// hint mirrors requestBytesHint's Sscanf on each junk header: a
		// multi-range header still yields its first range's length.
		junk := []struct {
			hdr  string
			hint int64
		}{{"bytes=0-1,3-4", 2}, {"frames=0-1", 0}, {"bytes=x-y", 0}, {"bytes=-0", 0}}[h.rng.Intn(4)]
		target := fmt.Sprintf("/video?v=%d", v)
		exp := h.modelJunkRange(v, junk.hint)
		return h.drive(http.MethodGet, target, junk.hdr, exp)
	case 5: // GET /prefetch → 405
		return h.drive(http.MethodGet, "/prefetch?v=1", "", expect{status: 405})
	default: // bad chunks parameter → 400 (cafe) / 501 (xlru)
		exp := expect{status: 400}
		if h.cfg.Algo != "cafe" {
			exp = expect{status: 501}
		}
		return h.drive(http.MethodPost, fmt.Sprintf("/prefetch?v=%d&chunks=9999", h.pickVideo()), "", exp)
	}
}

// modelBadRequest: parse failures precede everything — no counter
// moves, no origin contact.
func (h *harness) modelBadRequest() expect { return expect{status: 400} }

// modelJunkRange predicts an unparseable-Range request: the size
// lookup still runs first, so in an outage with the size unknown the
// request degrades (charging the header's byte hint) instead of 416ing.
func (h *harness) modelJunkRange(v chunk.VideoID, hint int64) expect {
	if _, known := h.model.known[v]; !known {
		if h.model.phase == PhaseOutage {
			h.model.ledger.fillErrs++
			return h.model.degrade(hint, fmt.Sprintf("/video?v=%d", v))
		}
		h.model.known[v] = h.model.catalog[v]
	}
	return expect{status: 416}
}

func (h *harness) opPhase() {
	fc := edge.FaultConfig{Seed: h.rng.Int63()}
	var phase Phase
	switch p := h.rng.Intn(10); {
	case p < 5:
		phase = PhaseHealthy
	case p < 8:
		phase = PhaseOutage
		fc.ErrorRate = 1
	default:
		phase = PhaseTruncate
		fc.TruncateRate = 1
	}
	h.fault.SetConfig(fc)
	h.model.phase = phase
}

// opEndpoints exercises the introspection routes; their bodies carry
// timing-dependent gauges, so they are asserted 200 but not digested.
func (h *harness) opEndpoints() error {
	for _, path := range []string{"/stats", "/metrics", "/healthz"} {
		rec := httptest.NewRecorder()
		h.server.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("GET %s: got %d, want 200", path, rec.Code)
		}
	}
	return h.diffStats()
}

// drive sends one request to the real server, folds the response into
// the digest, and diffs it and the resulting stats against the model.
func (h *harness) drive(method, target, rangeHeader string, exp expect) error {
	req := httptest.NewRequest(method, target, nil)
	if rangeHeader != "" {
		req.Header.Set("Range", rangeHeader)
	}
	rec := httptest.NewRecorder()
	h.server.ServeHTTP(rec, req)
	body := rec.Body.Bytes()
	loc := rec.Header().Get("Location")
	fmt.Fprintf(h.hash, "op%d|%d|%s|", h.op, rec.Code, loc)
	if rec.Code == 200 || rec.Code == 206 {
		// Error bodies carry upstream error strings, which embed the
		// origin's ephemeral port — real but not replayable content.
		// Payload bytes and the redirect Location are the replayable
		// surface, and both are fully model-checked above.
		h.hash.Write(body)
	}

	switch rec.Code {
	case 200:
		h.res.OK200++
	case 206:
		h.res.Partial206++
	case 302:
		h.res.Found302++
	case 400:
		h.res.BadRequest400++
	case 416:
		h.res.Unsatisfiable416++
	case 501:
		h.res.NotImplemented501++
	case 502:
		h.res.BadGateway502++
	default:
		h.res.Other++
	}

	if rec.Code != exp.status {
		return fmt.Errorf("%s %s (Range %q): got status %d, model predicts %d (body %.120q)",
			method, target, rangeHeader, rec.Code, exp.status, body)
	}
	if exp.status == 302 && loc != exp.location {
		return fmt.Errorf("%s %s: Location %q, model predicts %q", method, target, loc, exp.location)
	}
	if exp.status == 200 || exp.status == 206 {
		if exp.body != nil && !bytes.Equal(body, exp.body) {
			return fmt.Errorf("%s %s (Range %q): body diverges from model (%d vs %d bytes, first diff at %d)",
				method, target, rangeHeader, len(body), len(exp.body), firstDiff(body, exp.body))
		}
		if cr := rec.Header().Get("Content-Range"); cr != exp.cRange {
			return fmt.Errorf("%s %s: Content-Range %q, model predicts %q", method, target, cr, exp.cRange)
		}
	}
	return h.diffStats()
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// diffStats compares the server's full deterministic counter snapshot
// against the model after every operation.
func (h *harness) diffStats() error {
	st := h.server.SnapshotStats()
	m := h.model
	total, perShard := m.cachedChunks()
	type cmp struct {
		name      string
		got, want int64
	}
	checks := []cmp{
		{"served", st.Served, m.ledger.served},
		{"redirected", st.Redirected, m.ledger.redirs},
		{"degraded_redirects", st.DegradedRedirects, m.ledger.degraded},
		{"requested_bytes", st.RequestedBytes, m.ledger.counters.Requested},
		{"filled_bytes", st.FilledBytes, m.ledger.counters.Filled},
		{"redirected_bytes", st.RedirectedBytes, m.ledger.counters.Redirected},
		{"fill_errors", st.FillErrors, m.ledger.fillErrs},
		{"self_heals", st.SelfHeals, m.ledger.selfHeals},
		{"store_delete_errors", st.StoreDeleteErrors, 0},
		{"origin_retries", st.OriginRetries, 0},
		{"breaker_opens", st.BreakerOpens, 0},
		{"cached_chunks", int64(st.CachedChunks), int64(total)},
	}
	for _, c := range checks {
		if c.got != c.want {
			return fmt.Errorf("stats.%s: server %d, model %d", c.name, c.got, c.want)
		}
	}
	for i, n := range perShard {
		if st.ShardChunks[i] != n {
			return fmt.Errorf("stats.shard_chunks[%d]: server %d, model %d", i, st.ShardChunks[i], n)
		}
	}
	if st.BreakerState != "closed" {
		return fmt.Errorf("breaker %s: the oracle pins it closed", st.BreakerState)
	}
	// Eq. 2 identity, bit-exact: recompute efficiency and the ratios
	// from the model's counters with the same cost model.
	if eff := m.ledger.counters.Efficiency(m.costModel); st.Efficiency != eff {
		return fmt.Errorf("stats.efficiency: server %v, recomputed %v (Eq. 2 identity broken)", st.Efficiency, eff)
	}
	if ir := m.ledger.counters.IngressRatio(); st.IngressRatio != ir {
		return fmt.Errorf("stats.ingress_ratio: server %v, recomputed %v", st.IngressRatio, ir)
	}
	if rr := m.ledger.counters.RedirectRatio(); st.RedirectRatio != rr {
		return fmt.Errorf("stats.redirect_ratio: server %v, recomputed %v", st.RedirectRatio, rr)
	}
	// Counter monotonicity across operations.
	if h.haveLast {
		mono := []cmp{
			{"served", st.Served, h.last.Served},
			{"redirected", st.Redirected, h.last.Redirected},
			{"degraded_redirects", st.DegradedRedirects, h.last.DegradedRedirects},
			{"requested_bytes", st.RequestedBytes, h.last.RequestedBytes},
			{"filled_bytes", st.FilledBytes, h.last.FilledBytes},
			{"redirected_bytes", st.RedirectedBytes, h.last.RedirectedBytes},
			{"fill_errors", st.FillErrors, h.last.FillErrors},
		}
		for _, c := range mono {
			if c.got < c.want {
				return fmt.Errorf("stats.%s went backwards: %d after %d", c.name, c.got, c.want)
			}
		}
	}
	h.last, h.haveLast = st, true
	return nil
}

// quiesce checks the coherence invariants that hold between
// operations: every fill commits before its response returns, so every
// point between two operations is quiescent.
func (h *harness) quiesce() error {
	if err := h.diffStats(); err != nil {
		return err
	}
	return h.checkCoherence()
}

// checkCoherence asserts store↔cache↔model agreement:
//
//  1. the store holds exactly the model's key set — nothing the model
//     rolled back or evicted survives (no orphan bytes), nothing
//     admitted is missing;
//  2. every stored chunk's bytes verify against the deterministic
//     content function (no corruption, no truncation);
//  3. every chunk a cache claims has readable bytes (the count of
//     claimed store keys equals the caches' total occupancy).
func (h *harness) checkCoherence() error {
	if got, want := h.raw.Len(), len(h.model.store); got != want {
		return fmt.Errorf("coherence: store holds %d chunks, model expects %d (orphan or lost bytes)", got, want)
	}
	claimed := 0
	var rbuf []byte // expectedBody reuses h.buf; reads need their own buffer
	for key := range h.model.store {
		id := chunk.FromKey(key)
		if !h.raw.Has(id) {
			return fmt.Errorf("coherence: store lost admitted chunk %s", id)
		}
		data, err := h.raw.Get(id, rbuf[:0])
		if err != nil {
			return fmt.Errorf("coherence: reading admitted chunk %s: %v", id, err)
		}
		want := h.expectedBody(id.Video, int64(id.Index)*h.cfg.ChunkSize,
			int64(id.Index)*h.cfg.ChunkSize+h.model.chunkBytes(id)-1)
		if !bytes.Equal(data, want) {
			return fmt.Errorf("coherence: chunk %s corrupt (%d vs %d bytes, first diff at %d)",
				id, len(data), len(want), firstDiff(data, want))
		}
		rbuf = data[:0]
		if h.model.claims(id) {
			claimed++
		}
	}
	if total, _ := h.model.cachedChunks(); claimed != total && h.model.canForget() {
		// A policy with rollback must never claim a byte-less chunk.
		// Forget-less policies (gdsp, lruk) legitimately keep claiming
		// chunks whose fills failed — the serve path's preflight
		// self-heal re-fetches those on next touch.
		return fmt.Errorf("coherence: caches claim %d chunks but only %d have store bytes", total, claimed)
	}
	return h.checkTierCoherence()
}

// checkTierCoherence asserts the two tier invariants at a quiescent
// point (checkCoherence has already proven the cold store equal to the
// model's key set).
// Two-tier residency: every hot-resident chunk must exist in the
// model's store set with byte-identical deterministic content. One RAM
// copy per chunk: no chunk is hot-resident while the cold store lends
// it — over mem and the mmap slab the tier must be empty, since a loan
// is already a zero-copy read and a hot copy would only hold the bytes
// twice. The tier's own counters are diagnostics and never enter the
// digest or diffStats.
func (h *harness) checkTierCoherence() error {
	tier := h.server.HotTier()
	if tier == nil {
		return nil
	}
	lender, _ := h.raw.(store.BorrowGetter) // h.raw is the tier's cold store
	var tierErr error
	hot := 0
	tier.ForEachHot(func(id chunk.ID, data []byte) bool {
		hot++
		if lender != nil {
			if br, err := lender.GetBorrow(id); err == nil {
				br.Release()
				tierErr = fmt.Errorf("coherence: %s is hot-resident while the cold store lends it (two RAM copies of one chunk)", id)
				return false
			}
		}
		if _, ok := h.model.store[id.Key()]; !ok {
			tierErr = fmt.Errorf("coherence: hot tier serves %s which the model evicted or rolled back (hot ⊄ cold)", id)
			return false
		}
		want := h.expectedBody(id.Video, int64(id.Index)*h.cfg.ChunkSize,
			int64(id.Index)*h.cfg.ChunkSize+h.model.chunkBytes(id)-1)
		if !bytes.Equal(data, want) {
			tierErr = fmt.Errorf("coherence: hot copy of %s corrupt (%d vs %d bytes, first diff at %d)",
				id, len(data), len(want), firstDiff(data, want))
			return false
		}
		return true
	})
	if tierErr != nil {
		return tierErr
	}
	ts := tier.Stats()
	if ts.HotChunks != hot {
		return fmt.Errorf("coherence: tier reports %d hot chunks, walk found %d", ts.HotChunks, hot)
	}
	if ts.HotBytes < 0 || (hot == 0 && ts.HotBytes != 0) {
		return fmt.Errorf("coherence: tier byte accounting drifted: %d bytes for %d chunks", ts.HotBytes, hot)
	}
	if hot > len(h.model.store) {
		return fmt.Errorf("coherence: %d hot chunks exceed the %d cold-resident chunks", hot, len(h.model.store))
	}
	h.res.PeakHotChunks = max(h.res.PeakHotChunks, hot)
	return nil
}

// opReopen closes the server and store and reopens them against the
// same directory: counters reset, caches go cold, and — for persistent
// stores — every byte must survive recovery exactly.
func (h *harness) opReopen() error {
	if err := h.quiesce(); err != nil {
		return err
	}
	if err := h.server.Close(); err != nil {
		return fmt.Errorf("reopen: closing server: %v", err)
	}
	if err := h.closeStore(); err != nil {
		return fmt.Errorf("reopen: closing store: %v", err)
	}
	if err := h.openStore(); err != nil {
		return fmt.Errorf("reopen: %v", err)
	}
	storeWiped := h.cfg.StoreKind == "mem"
	if err := h.model.reopen(h.factory, h.perShard, storeWiped); err != nil {
		return err
	}
	if err := h.buildServer(); err != nil {
		return fmt.Errorf("reopen: %v", err)
	}
	h.res.Reopens++
	// Recovery must reproduce the model's store set byte for byte.
	return h.checkCoherence()
}
