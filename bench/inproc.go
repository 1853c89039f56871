package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"videocdn/internal/core"
	"videocdn/internal/edge"
	"videocdn/internal/policy"
	"videocdn/internal/resilience"
	"videocdn/internal/store"
)

// inproc is an origin and an edge inside the bench process, configured
// like the children of the same workload, for the serial per-layer
// pass. With a tracer every layer's public boundary is wrapped; without
// one the server is built bare, which is the reference the traced pass
// is compared against.
type inproc struct {
	srv      *edge.Server
	tiered   *store.Tiered // nil without a hot tier
	slab     *store.Slab
	dir      string
	servers  []*http.Server
	edgeAddr string
	// sent counts the requests sent so far, warm-up included. It drives
	// Config.Clock, so policy decisions depend on the request stream
	// alone and every count repeats for a given seed.
	sent atomic.Int64
}

func serveLoopback(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}

// originWrap, when not nil, puts a handler in front of the origin: the
// tests' way to hand the edge a faulty upstream.
func startInproc(root string, w *workload, t *tracer, originWrap func(http.Handler) http.Handler) (ip *inproc, err error) {
	tmp := filepath.Join(root, buildDir, "run")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	ip = &inproc{}
	defer func() {
		if err != nil {
			ip.stop()
		}
	}()
	if ip.dir, err = os.MkdirTemp(tmp, w.Name+"-inproc-"); err != nil {
		return nil, err
	}
	origin, err := edge.NewOrigin(edge.DeterministicCatalog{MinBytes: int64(w.VideoMB) << 20, MaxBytes: int64(w.VideoMB) << 20}, w.ChunkBytes)
	if err != nil {
		return nil, err
	}
	var originHandler http.Handler = origin
	if originWrap != nil {
		originHandler = originWrap(origin)
	}
	originSrv, originAddr, err := serveLoopback(originHandler)
	if err != nil {
		return nil, err
	}
	ip.servers = append(ip.servers, originSrv)

	if ip.slab, err = store.NewSlab(filepath.Join(ip.dir, "slab"), store.SlabConfig{SlotBytes: w.ChunkBytes, Mmap: w.StoreMmap}); err != nil {
		return nil, err
	}
	// The hot tier is composed here, not by Config.HotBytes, so that a
	// hot hit crosses the timed boundary like any other read.
	var st store.Store = ip.slab
	if w.HotMB > 0 {
		ip.tiered = store.NewTiered(ip.slab, store.TieredConfig{HotBytes: w.HotMB << 20, Stripes: 1})
		st = ip.tiered
	}
	transport := http.RoundTripper(http.DefaultTransport.(*http.Transport).Clone())
	factory := func(_ int, cfg core.Config) (core.Cache, error) {
		return policy.NewWithEnv(w.Policy, cfg, policy.Env{Alpha: w.Alpha}, nil)
	}
	if t != nil {
		st = wrapStore(st, t)
		transport = &timedTransport{inner: transport, t: t}
		bare := factory
		factory = func(i int, cfg core.Config) (core.Cache, error) {
			c, err := bare(i, cfg)
			if err != nil {
				return nil, err
			}
			return &timedCache{Cache: c, t: t, chunkSize: cfg.ChunkSize}, nil
		}
	}
	ip.srv, err = edge.NewServer(edge.Config{
		CacheFactory: factory,
		CacheConfig:  core.Config{ChunkSize: w.ChunkBytes, DiskChunks: w.DiskChunks},
		Store:        st,
		OriginURL:    "http://" + originAddr,
		RedirectURL:  redirectBase,
		ChunkSize:    w.ChunkBytes,
		Alpha:        w.Alpha,
		Clock:        func() int64 { return ip.sent.Load() / w.ClockRPS },
		Client:       &http.Client{Timeout: 60 * time.Second, Transport: transport},
		// cdnserver's flag defaults, so the in-process edge retries and
		// trips its breaker like the child.
		FillTimeout: 15 * time.Second,
		Retry:       resilience.RetryPolicy{MaxAttempts: 3},
		Breaker:     resilience.BreakerConfig{OpenFor: 5 * time.Second, FailureRate: 0.5},
	})
	if err != nil {
		return nil, err
	}
	var h http.Handler = ip.srv
	if t != nil {
		h = &timedHandler{inner: h, t: t}
	}
	edgeSrv, edgeAddr, err := serveLoopback(h)
	if err != nil {
		return nil, err
	}
	ip.servers = append(ip.servers, edgeSrv)
	ip.edgeAddr = edgeAddr
	return ip, nil
}

func (ip *inproc) stop() {
	for _, s := range ip.servers {
		s.Close()
	}
	if ip.srv != nil {
		ip.srv.Close()
	}
	if ip.slab != nil {
		ip.slab.Close()
	}
	if ip.dir != "" {
		os.RemoveAll(ip.dir)
	}
}

func (ip *inproc) stats() (edge.Stats, error) {
	st := ip.srv.SnapshotStats()
	return st, checkEq2(st)
}

// serial is the outcome of a one-connection in-process pass.
type serial struct {
	requests   int
	wall       time.Duration
	failed     int
	errs       []string
	warmOps    int
	efficiency float64
	paths      edge.ServePathStats // deltas over the pass
	tier       store.TierStats     // deltas over the pass; zero without a hot tier
	retries    int64
	statsJSON  edge.Stats // the server's /stats after the pass
}

// runSerial warms an in-process stack and sends requests [0, n) of the
// seeded stream over one connection. With a tracer, spans are recorded
// for exactly those n requests.
func runSerial(root string, w *workload, seed int64, n int, t *tracer, originWrap func(http.Handler) http.Handler) (*serial, error) {
	ip, err := startInproc(root, w, t, originWrap)
	if err != nil {
		return nil, err
	}
	defer ip.stop()
	gen := newRequestGen(*w, seed)
	load, err := newHTTPLoad(w, gen, ip.edgeAddr, 1)
	if err != nil {
		return nil, err
	}
	defer load.close()
	load.sent = &ip.sent
	out := &serial{requests: n}
	if out.warmOps, out.failed, err = warmUp(w, gen, load, 1, ip.stats); err != nil {
		return nil, err
	}
	before, err := ip.stats()
	if err != nil {
		return nil, err
	}
	paths0 := ip.srv.ServePathStats()
	var tier0 store.TierStats
	if ip.tiered != nil {
		tier0 = ip.tiered.Stats()
	}
	if t != nil {
		t.on.Store(true)
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if load.op(0, w.WarmupRequests+int64(i)).failed {
			out.failed++
		}
	}
	out.wall = time.Since(start)
	if t != nil {
		t.on.Store(false)
	}
	after, err := ip.stats()
	if err != nil {
		return nil, err
	}
	out.statsJSON = after
	out.efficiency, _ = windowEfficiency(before, after)
	out.retries = after.OriginRetries - before.OriginRetries
	p := ip.srv.ServePathStats()
	out.paths = edge.ServePathStats{
		SendfileChunks: p.SendfileChunks - paths0.SendfileChunks,
		BorrowChunks:   p.BorrowChunks - paths0.BorrowChunks,
		CopyChunks:     p.CopyChunks - paths0.CopyChunks,
		StreamFills:    p.StreamFills - paths0.StreamFills,
		BufferedFills:  p.BufferedFills - paths0.BufferedFills,
	}
	if ip.tiered != nil {
		ts := ip.tiered.Stats()
		out.tier = store.TierStats{HotHits: ts.HotHits - tier0.HotHits, ColdHits: ts.ColdHits - tier0.ColdHits, Misses: ts.Misses - tier0.Misses}
	}
	out.errs = load.errs
	if out.failed > 0 && len(out.errs) == 0 {
		out.errs = []string{fmt.Sprintf("%d failed operations", out.failed)}
	}
	return out, nil
}
