package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// ProberConfig tunes the background health prober.
type ProberConfig struct {
	// Self is this node's ID; it is never probed (a node that can run
	// the prober is alive by definition).
	Self string
	// Interval between probe rounds (default 1s).
	Interval time.Duration
	// Timeout bounds each individual probe (default 500ms).
	Timeout time.Duration
	// FailThreshold consecutive failed probes mark a node dead
	// (default 2 — one blip must not reroute the cluster).
	FailThreshold int
	// OkThreshold consecutive successful probes mark a dead node alive
	// again (default 1 — recovery should be fast; the per-peer breaker
	// still guards the first fetches).
	OkThreshold int
	// Probe checks one node, nil error meaning healthy. Default: HTTP
	// GET <node.URL>/healthz expecting 200. Injectable for
	// deterministic tests.
	Probe func(ctx context.Context, n Node) error
	// HTTPClient is used by the default probe.
	HTTPClient *http.Client
}

// Prober periodically probes every other node in the membership and
// flips their liveness — the detector that lets the router rehash
// around dead peers and heal when they return. One goroutine; Stop
// waits for it to exit, so shutdown is leak-free.
type Prober struct {
	cfg ProberConfig
	m   *Membership

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}

	mu    sync.Mutex
	fails map[string]int // consecutive probe failures per node
	oks   map[string]int // consecutive probe successes per dead node

	deaths   atomic.Int64 // alive→dead transitions observed
	revivals atomic.Int64 // dead→alive transitions observed
}

// NewProber builds a prober over the membership; call Start to begin
// probing.
func NewProber(m *Membership, cfg ProberConfig) *Prober {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 500 * time.Millisecond
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 2
	}
	if cfg.OkThreshold <= 0 {
		cfg.OkThreshold = 1
	}
	if cfg.Probe == nil {
		client := cfg.HTTPClient
		if client == nil {
			client = &http.Client{Timeout: cfg.Timeout}
		}
		cfg.Probe = func(ctx context.Context, n Node) error {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.URL+"/healthz", nil)
			if err != nil {
				return err
			}
			resp, err := client.Do(req)
			if err != nil {
				return err
			}
			io.Copy(io.Discard, io.LimitReader(resp.Body, 64))
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("cluster: %s/healthz returned %s", n.ID, resp.Status)
			}
			return nil
		}
	}
	return &Prober{
		cfg: cfg, m: m,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
		fails: make(map[string]int),
		oks:   make(map[string]int),
	}
}

// Start launches the probe loop (idempotent).
func (p *Prober) Start() {
	p.startOnce.Do(func() {
		go p.loop()
	})
}

// Stop halts the probe loop and waits for the goroutine to exit
// (idempotent; a never-started prober stops immediately).
func (p *Prober) Stop() {
	p.stopOnce.Do(func() { close(p.stop) })
	p.startOnce.Do(func() { close(p.done) }) // never started: nothing to wait for
	<-p.done
}

func (p *Prober) loop() {
	defer close(p.done)
	t := time.NewTicker(p.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.probeRound()
		}
	}
}

// probeRound probes every non-self node once and applies the
// threshold state machine. Exposed to tests via ProbeNow.
func (p *Prober) probeRound() {
	for _, n := range p.m.Nodes() {
		if n.ID == p.cfg.Self {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), p.cfg.Timeout)
		err := p.cfg.Probe(ctx, n)
		cancel()
		p.record(n.ID, err == nil)
	}
}

// ProbeNow runs one synchronous probe round — deterministic tests and
// operator-forced rechecks.
func (p *Prober) ProbeNow() { p.probeRound() }

// record applies one probe outcome to the node's streak counters and
// flips membership liveness at the thresholds.
func (p *Prober) record(id string, ok bool) {
	p.mu.Lock()
	var markDead, markAlive bool
	if ok {
		p.fails[id] = 0
		p.oks[id]++
		markAlive = !p.m.Alive(id) && p.oks[id] >= p.cfg.OkThreshold
	} else {
		p.oks[id] = 0
		p.fails[id]++
		markDead = p.m.Alive(id) && p.fails[id] >= p.cfg.FailThreshold
	}
	p.mu.Unlock()
	if markDead && p.m.SetAlive(id, false) {
		p.deaths.Add(1)
	}
	if markAlive && p.m.SetAlive(id, true) {
		p.revivals.Add(1)
	}
}

// Deaths returns how many alive→dead transitions this prober caused.
func (p *Prober) Deaths() int64 { return p.deaths.Load() }

// Revivals returns how many dead→alive transitions this prober caused.
func (p *Prober) Revivals() int64 { return p.revivals.Load() }
