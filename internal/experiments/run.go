package experiments

import (
	"fmt"

	"videocdn/internal/core"
	"videocdn/internal/cost"
	"videocdn/internal/policy"
	_ "videocdn/internal/policy/all"
	"videocdn/internal/sim"
	"videocdn/internal/trace"
)

// Algorithms, in the order the paper's bar groups use.
const (
	AlgoXLRU    = "xlru"
	AlgoCafe    = "cafe"
	AlgoPsychic = "psychic"
	AlgoLRU     = "lru"    // always-fill baseline (extension)
	AlgoGDSP    = "gdsp"   // Greedy-Dual-Size-Popularity baseline (related work)
	AlgoLRUK    = "lruk"   // LRU-2 baseline (related work)
	AlgoBelady  = "belady" // offline optimal replacement, always-fill (related work)
	AlgoLRUQ    = "lruq"   // LRU(q), q = 4: hits climb recency levels (related work)
	AlgoAdmit   = "admit"  // LRU behind a frequency doorkeeper (related work)
)

// OnlineAlgos is the paper's per-figure trio.
var OnlineAlgos = []string{AlgoXLRU, AlgoCafe, AlgoPsychic}

// newCache builds a registry spec ("cafe", "lruq:q=8",
// "psychic:strict=true") over cfg: alpha goes wherever the schema
// takes it, and reqs is an offline policy's future.
func newCache(spec string, cfg core.Config, alpha float64, reqs []trace.Request) (core.Cache, error) {
	f, err := policy.Factory(spec, policy.Env{
		Alpha:  alpha,
		Future: func() []trace.Request { return reqs },
	})
	if err != nil {
		return nil, err
	}
	return f(0, cfg)
}

// runOne replays reqs through the named algorithm and returns the
// result.
func runOne(name string, cfg core.Config, alpha float64, reqs []trace.Request, opt sim.Options) (*sim.Result, error) {
	c, err := newCache(name, cfg, alpha, reqs)
	if err != nil {
		return nil, err
	}
	m, err := cost.NewModel(alpha)
	if err != nil {
		return nil, err
	}
	return sim.Replay(c, trace.Slice(reqs), m, opt)
}

// runMany replays reqs through several algorithms concurrently (they
// share nothing but the read-only trace).
func runMany(algos []string, cfg core.Config, alpha float64, reqs []trace.Request, opt sim.Options) (map[string]*sim.Result, error) {
	m, err := cost.NewModel(alpha)
	if err != nil {
		return nil, err
	}
	jobs := make([]sim.Job, 0, len(algos))
	for _, name := range algos {
		c, err := newCache(name, cfg, alpha, reqs)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, sim.Job{Name: name, Cache: c, Model: m})
	}
	return sim.ReplayAll(jobs, trace.Slice(reqs), opt)
}

// pct formats a ratio as a percentage.
func pct(v float64) string { return fmt.Sprintf("%5.1f%%", 100*v) }

// coreConfig builds the shared cache configuration for a scale.
func coreConfig(sc Scale) core.Config {
	return core.Config{ChunkSize: sc.ChunkSize, DiskChunks: sc.DiskChunks}
}

// simOptions returns the default replay options used by the figures.
func simOptions() sim.Options { return sim.Options{} }
