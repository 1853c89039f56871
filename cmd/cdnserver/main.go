// Command cdnserver runs the HTTP cache hierarchy: an origin, an
// optional secondary (deep) cache, and an edge cache, each an HTTP
// server speaking byte ranges and 302 redirects.
//
// Modes:
//
//	cdnserver -mode origin -listen :8080
//	cdnserver -mode edge -listen :8081 -origin http://localhost:8080 \
//	          -redirect http://localhost:8082 -algo cafe -alpha 2 -disk-gb 1
//
// Then fetch through the edge:
//
//	curl -v 'http://localhost:8081/video?v=42&start=0&end=1048575'
//	curl 'http://localhost:8081/stats'
//
// Both modes shut down gracefully on SIGINT/SIGTERM: the listener
// closes, in-flight requests get -drain to finish, and (edge mode with
// -request-log) the log's last block is written after the drain so it
// can't race live handlers. A restart over the same -request-log and
// -data replays the log into the policy, after a crash too.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux, exposed only via -pprof
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"videocdn/internal/chunk"
	"videocdn/internal/cluster"
	"videocdn/internal/core"
	"videocdn/internal/cost"
	"videocdn/internal/edge"
	"videocdn/internal/policy"
	_ "videocdn/internal/policy/all"
	"videocdn/internal/resilience"
	"videocdn/internal/store"
)

func main() {
	mode := flag.String("mode", "edge", "server mode: origin or edge")
	listen := flag.String("listen", ":8081", "listen address")
	origin := flag.String("origin", "http://localhost:8080", "origin base URL (edge mode)")
	redirect := flag.String("redirect", "", "redirect target base URL (edge mode)")
	algo := flag.String("algo", "cafe", "edge policy, resolved through the registry: "+strings.Join(policy.Names(), ", "))
	policyConfig := flag.String("policy-config", "", "policy parameters as k=v,k2=v2 (schema-validated; e.g. -algo lruq -policy-config q=8)")
	alpha := flag.Float64("alpha", 2, "alpha_F2R")
	diskGB := flag.Float64("disk-gb", 1, "edge disk size in GB")
	chunkMB := flag.Float64("chunk-mb", 2, "chunk size in MB")
	dataDir := flag.String("data", "", "chunk store directory (required for -store fs/slab)")
	storeKind := flag.String("store", "", "chunk store backend: mem, fs or slab (default: fs when -data is set, else mem)")
	storeMmap := flag.Bool("store-mmap", false, "slab store: mmap segments read-only so cache hits serve page-cache bytes without copying")
	hotMB := flag.Int64("hot-mb", 0, "edge mode: RAM hot tier budget in MB (0 disables); it holds copies of hot chunks the store cannot lend zero-copy (-store fs, slab without -store-mmap) and stays empty over one that can (-store mem, -store-mmap)")
	requestLog := flag.String("request-log", "", "edge mode: directory of the request log; every policy event is appended to it, and a restart replays it so the policy resumes where it stopped (any -algo, after a crash too)")
	statsOut := flag.String("stats-out", "", "write the final stats snapshot (JSON) here after graceful shutdown (edge mode)")
	minMB := flag.Int64("origin-min-mb", 8, "origin catalog min video size (MB)")
	maxMB := flag.Int64("origin-max-mb", 256, "origin catalog max video size (MB)")
	nodeID := flag.String("node-id", "", "this node's cluster ID (edge mode; required with -peers)")
	peersSpec := flag.String("peers", "", "cluster members as id=url,id=url,... (edge mode; include every node — peers rendezvous-route misses to each other before the origin)")
	advertise := flag.String("advertise", "", "URL peers reach this node at (edge mode; adds or overrides this node's -peers entry)")
	peerTimeout := flag.Duration("peer-timeout", 2*time.Second, "deadline per peer fetch attempt (edge mode)")
	peerAlpha := flag.Float64("peer-alpha", 0.25, "alpha_P2R: peer-fill cost relative to a redirect (edge mode)")
	probeInterval := flag.Duration("probe-interval", time.Second, "peer health probe interval (edge mode with -peers)")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown drain timeout")
	readHeaderTimeout := flag.Duration("read-header-timeout", 5*time.Second, "http.Server ReadHeaderTimeout: how long a client may dribble request headers (slowloris guard)")
	readTimeout := flag.Duration("read-timeout", 60*time.Second, "http.Server ReadTimeout for the whole request read (0 disables)")
	idleTimeout := flag.Duration("idle-timeout", 120*time.Second, "http.Server IdleTimeout for keep-alive connections (0 disables)")
	writeTimeout := flag.Duration("write-timeout", 0, "http.Server WriteTimeout (0 disables — large videos stream for a while)")
	fillTimeout := flag.Duration("fill-timeout", 15*time.Second, "per-request budget for origin fills (edge mode)")
	retries := flag.Int("retries", 3, "max attempts per origin fetch (edge mode)")
	breakerOpenFor := flag.Duration("breaker-open-for", 5*time.Second, "how long the origin breaker stays open before probing (edge mode)")
	breakerFailRate := flag.Float64("breaker-failure-rate", 0.5, "origin failure rate that trips the breaker (edge mode)")
	pprofAddr := flag.String("pprof", "", "listen address for net/http/pprof debug endpoints (e.g. localhost:6060); empty disables")
	mutexFrac := flag.Int("mutexprofile", 0, "mutex profile sampling fraction (runtime.SetMutexProfileFraction; 0 disables)")
	blockRate := flag.Int("blockprofile", 0, "block profile sampling rate in ns (runtime.SetBlockProfileRate; 0 disables)")
	flag.Parse()

	// Contention profiling must be switched on before traffic arrives
	// for /debug/pprof/{mutex,block} to have data; both default off
	// because sampling costs a few percent on hot paths.
	if *mutexFrac > 0 {
		runtime.SetMutexProfileFraction(*mutexFrac)
	}
	if *blockRate > 0 {
		runtime.SetBlockProfileRate(*blockRate)
	}
	if *pprofAddr != "" {
		go func() {
			log.Printf("pprof listening on http://%s/debug/pprof/", *pprofAddr)
			log.Printf("pprof server exited: %v", http.ListenAndServe(*pprofAddr, nil))
		}()
	}

	chunkSize := int64(*chunkMB * (1 << 20))
	timeouts := serverTimeouts{
		readHeader: *readHeaderTimeout,
		read:       *readTimeout,
		write:      *writeTimeout,
		idle:       *idleTimeout,
	}
	switch *mode {
	case "origin":
		catalog := edge.DeterministicCatalog{MinBytes: *minMB << 20, MaxBytes: *maxMB << 20}
		o, err := edge.NewOrigin(catalog, chunkSize)
		if err != nil {
			fatal(err)
		}
		log.Printf("origin listening on %s (chunk %d bytes)", *listen, chunkSize)
		serveGracefully(o, *listen, *drain, timeouts, nil)
	case "edge":
		if *redirect == "" {
			fatal(fmt.Errorf("-redirect is required in edge mode (the alternative server location)"))
		}
		cfg := core.Config{ChunkSize: chunkSize, DiskChunks: int(*diskGB * (1 << 30) / float64(chunkSize))}
		spec := *algo
		if *policyConfig != "" {
			spec += ":" + *policyConfig
		}
		factory, err := policy.Factory(spec, policy.Env{Alpha: *alpha})
		if err != nil {
			fatal(err)
		}
		srvCfg := edge.Config{
			CacheFactory: factory,
			CacheConfig:  cfg,
			Store:        nil, // set below
			OriginURL:    *origin,
			RedirectURL:  *redirect,
			ChunkSize:    chunkSize,
			Alpha:        *alpha,
			Client:       &http.Client{Timeout: 60 * time.Second},
			FillTimeout:  *fillTimeout,
			Retry:        resilience.RetryPolicy{MaxAttempts: *retries},
			Breaker: resilience.BreakerConfig{
				OpenFor:     *breakerOpenFor,
				FailureRate: *breakerFailRate,
			},
		}
		st, stored, err := openStore(*storeKind, *dataDir, chunkSize, *storeMmap)
		if err != nil {
			fatal(err)
		}
		srvCfg.Store = st
		srvCfg.HotBytes = *hotMB << 20

		// Cluster wiring: a shared member view, a rendezvous router, a
		// breaker-guarded peer client the edge consults before the
		// origin, a health prober that rehashes around dead peers, and
		// the /cluster/stats roll-up.
		var (
			peerClient *cluster.Client
			prober     *cluster.Prober
			aggregator *cluster.Aggregator
		)
		if *peersSpec != "" {
			if *nodeID == "" {
				fatal(fmt.Errorf("-peers requires -node-id"))
			}
			members, err := parsePeers(*peersSpec, *nodeID, *advertise)
			if err != nil {
				fatal(err)
			}
			membership, err := cluster.NewMembership(members)
			if err != nil {
				fatal(err)
			}
			router := cluster.NewRouter(membership)
			peerClient = cluster.NewClient(router, cluster.ClientConfig{
				Self:          *nodeID,
				Timeout:       *peerTimeout,
				MaxChunkBytes: chunkSize,
			})
			prober = cluster.NewProber(membership, cluster.ProberConfig{
				Self:     *nodeID,
				Interval: *probeInterval,
			})
			model, err := cost.NewModel(*alpha)
			if err != nil {
				fatal(err)
			}
			if model, err = model.WithPeer(*peerAlpha); err != nil {
				fatal(err)
			}
			aggregator = cluster.NewAggregator(membership, cluster.AggregatorConfig{Model: model})
			srvCfg.PeerFill = peerClient
			srvCfg.PeerAlpha = *peerAlpha
			srvCfg.NodeID = *nodeID
		}

		var srv *edge.Server
		if *requestLog == "" {
			srv, err = edge.NewServer(srvCfg)
		} else if srv, err = edge.Boot(srvCfg, *requestLog, stored); err == nil {
			log.Printf("replayed request log %s: %d chunks warm, %d stored", *requestLog, srv.SnapshotStats().CachedChunks, st.Len())
		}
		if err != nil {
			fatal(err)
		}
		// The one listener serves clients and peers alike (/video and
		// /peer/chunk share the mux); /cluster/stats rides along when
		// clustered.
		var handler http.Handler = srv
		if aggregator != nil {
			outer := http.NewServeMux()
			outer.Handle("/cluster/stats", aggregator)
			outer.Handle("/", srv)
			handler = outer
			prober.Start()
		}
		afterDrain := func() {
			if prober != nil {
				prober.Stop()
			}
			if peerClient != nil {
				peerClient.Close()
			}
			if err := srv.Close(); err != nil {
				log.Printf("closing edge: %v", err)
			}
			if *statsOut != "" {
				saveStats(srv, *statsOut)
			}
			if c, ok := st.(interface{ Close() error }); ok {
				if err := c.Close(); err != nil {
					log.Printf("closing store: %v", err)
				}
			}
		}
		tierNote := ""
		if *hotMB > 0 {
			tierNote = fmt.Sprintf(", %dMB hot tier", *hotMB)
			if *storeMmap && storeName(*storeKind, *dataDir) == "slab" {
				log.Print("hot tier idle: the slab lends chunks from the page cache")
			}
		}
		clusterNote := ""
		if peerClient != nil {
			clusterNote = fmt.Sprintf(", cluster node %q (alpha_P=%.2g)", *nodeID, *peerAlpha)
		}
		log.Printf("edge (%s, alpha=%.2g, %d-chunk disk, %s store%s%s) on %s -> origin %s, redirects to %s",
			*algo, *alpha, cfg.DiskChunks, storeName(*storeKind, *dataDir), tierNote, clusterNote, *listen, *origin, *redirect)
		serveGracefully(handler, *listen, *drain, timeouts, afterDrain)
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
}

// serverTimeouts carries the http.Server deadline knobs: without a
// ReadHeaderTimeout a handful of slowloris connections dribbling one
// header byte at a time can pin every server goroutine forever.
type serverTimeouts struct {
	readHeader time.Duration
	read       time.Duration
	write      time.Duration
	idle       time.Duration
}

// serveGracefully runs an http.Server until SIGINT/SIGTERM, then
// drains in-flight requests for up to drain before closing them, and
// finally runs afterDrain (if any) — so the request log's last block
// is written with no handler mid-request. The listener is bound before
// serving and its resolved address logged, so -listen :0 yields a
// discoverable port (the e2e shutdown test depends on that line). The
// same hardened listener fronts clients and cluster peers alike.
func serveGracefully(h http.Handler, listen string, drain time.Duration, t serverTimeouts, afterDrain func()) {
	// The handler is in place before the listen line: a signal sent as
	// soon as a client sees it must drain, not kill, the server.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		fatal(err)
	}
	log.Printf("listening on %s", ln.Addr())
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: t.readHeader,
		ReadTimeout:       t.read,
		WriteTimeout:      t.write,
		IdleTimeout:       t.idle,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		fatal(err) // bind failure or unexpected listener death
	case sig := <-sigc:
		log.Printf("%v: draining for up to %v", sig, drain)
	}

	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("drain incomplete: %v", err)
		srv.Close()
	}
	if afterDrain != nil {
		afterDrain()
	}
}

// saveStats writes the final stats snapshot as JSON via a temp file +
// rename. It runs after the drain and after the fill pipeline has
// stopped, so the counters are final.
func saveStats(srv *edge.Server, path string) {
	data, err := json.MarshalIndent(srv.SnapshotStats(), "", "  ")
	if err == nil {
		data = append(data, '\n')
		tmp := path + ".tmp"
		if err = os.WriteFile(tmp, data, 0o644); err == nil {
			err = os.Rename(tmp, path)
		}
	}
	if err != nil {
		log.Printf("saving stats: %v", err)
		os.Exit(1)
	}
	log.Printf("saved stats snapshot to %s", path)
}

// parsePeers turns "-peers id=url,id=url,..." into the member list. A
// missing entry for self is added from -advertise (so the same -peers
// string can be shared across the whole cluster), and -advertise
// overrides self's URL when both are given.
func parsePeers(spec, self, advertise string) ([]cluster.Node, error) {
	var nodes []cluster.Node
	selfSeen := false
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		id, url = strings.TrimSpace(id), strings.TrimSpace(url)
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want id=url)", part)
		}
		url = strings.TrimRight(url, "/")
		if id == self {
			selfSeen = true
			if advertise != "" {
				url = strings.TrimRight(advertise, "/")
			}
		}
		nodes = append(nodes, cluster.Node{ID: id, URL: url})
	}
	if !selfSeen {
		if advertise == "" {
			return nil, fmt.Errorf("-peers does not list node %q and no -advertise given", self)
		}
		nodes = append(nodes, cluster.Node{ID: self, URL: strings.TrimRight(advertise, "/")})
	}
	return nodes, nil
}

// storeName resolves the -store flag's default: -data alone has always
// meant the FS store, and no flags means in-memory.
func storeName(kind, dir string) string {
	if kind != "" {
		return kind
	}
	if dir != "" {
		return "fs"
	}
	return "mem"
}

// openStore builds the chunk store the flags select and lists the
// chunks it holds on opening, which edge.Boot sweeps against the
// replayed policy (a new mem store holds none).
func openStore(kind, dir string, chunkSize int64, mmap bool) (store.Store, []chunk.ID, error) {
	switch storeName(kind, dir) {
	case "mem":
		return store.NewMem(), nil, nil
	case "fs":
		if dir == "" {
			return nil, nil, fmt.Errorf("-store fs requires -data")
		}
		fs, err := store.NewFS(dir)
		if err != nil {
			return nil, nil, err
		}
		return fs, fs.Keys(), nil
	case "slab":
		if dir == "" {
			return nil, nil, fmt.Errorf("-store slab requires -data")
		}
		slab, err := store.NewSlab(dir, store.SlabConfig{SlotBytes: chunkSize, Mmap: mmap})
		if err != nil {
			return nil, nil, err
		}
		return slab, slab.Keys(), nil
	}
	return nil, nil, fmt.Errorf("unknown store backend %q (mem, fs or slab)", kind)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cdnserver:", err)
	os.Exit(1)
}
