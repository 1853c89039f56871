package policy_test

// The registry-driven conformance suite: every registered policy —
// present and future — is held to the core.Cache contract on seeded
// random traces. A new policy gets all of this for free the moment it
// calls policy.Register; a policy that violates capacity, accounting,
// rollback or determinism fails here before any figure or oracle run
// sees it.

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/cost"
	"videocdn/internal/policy"
	_ "videocdn/internal/policy/all"
	"videocdn/internal/shard"
	"videocdn/internal/sim"
	"videocdn/internal/trace"
)

const (
	confChunk = 1024
	confDisk  = 32
)

// confVariants adds configured variants of the parameterized plugins
// on top of the registry's default-config sweep, so composition
// (admit over cafe) and the q extremes run under the same contract.
var confVariants = map[string]policy.Params{
	"lruq:q=1":         {"q": 1},
	"lruq:q=64":        {"q": 64},
	"admit:inner=cafe": {"inner": "cafe", "min_hits": 2, "small_chunks": 2},
}

func confCfg() core.Config {
	return core.Config{ChunkSize: confChunk, DiskChunks: confDisk}
}

// confTrace is a seeded request stream: sized so eviction is constant,
// with repeated timestamps (several requests per tick) to exercise the
// non-decreasing-time contract, and a popularity skew so admission
// policies both admit and decline.
func confTrace(seed int64, n int) []trace.Request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]trace.Request, 0, n)
	for i := 0; i < n; i++ {
		v := chunk.VideoID(rng.Intn(8)) // hot set
		if rng.Intn(3) == 0 {
			v = chunk.VideoID(8 + rng.Intn(100)) // cold tail
		}
		c0 := rng.Intn(6)
		c1 := c0 + rng.Intn(6-c0)
		reqs = append(reqs, trace.Request{
			Time:  int64(i / 4),
			Video: v,
			Start: int64(c0) * confChunk,
			End:   int64(c1+1)*confChunk - 1,
		})
	}
	return reqs
}

// build constructs one policy instance the way the drivers do:
// through NewWithEnv, with the replay trace as the offline future.
func build(t *testing.T, name string, p policy.Params, reqs []trace.Request) core.Cache {
	t.Helper()
	c, err := policy.NewWithEnv(name, confCfg(), policy.Env{
		Alpha:  2,
		Future: func() []trace.Request { return reqs },
	}, p)
	if err != nil {
		t.Fatalf("build %s: %v", name, err)
	}
	return c
}

// digestOutcome folds one request's outcome into a replay digest: the
// decision, the counters and the exact ID sequences. Two caches with
// equal digests made byte-identical decisions.
func digestOutcome(h interface{ Write([]byte) (int, error) }, out core.Outcome) {
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(out.Decision))
	put(uint64(out.FilledChunks))
	put(uint64(out.FilledBytes))
	put(uint64(out.EvictedChunks))
	for _, id := range out.FilledIDs {
		put(id.Key())
	}
	for _, id := range out.EvictedIDs {
		put(id.Key())
	}
}

// conformanceCases lists every registered policy plus the configured
// variants.
func conformanceCases() map[string]policy.Params {
	cases := map[string]policy.Params{}
	for _, name := range policy.Names() {
		cases[name] = nil
	}
	for label, p := range confVariants {
		cases[label] = p
	}
	return cases
}

func baseName(label string) string {
	for i := 0; i < len(label); i++ {
		if label[i] == ':' {
			return label[:i]
		}
	}
	return label
}

// TestConformance replays seeded traces through every registered
// policy and checks the core.Cache contract after every request.
func TestConformance(t *testing.T) {
	if n := len(policy.Names()); n < 9 {
		t.Fatalf("registry has %d policies, want >= 9: %v", n, policy.Names())
	}
	for label, params := range conformanceCases() {
		t.Run(label, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				reqs := confTrace(seed, 2500)
				c := build(t, baseName(label), params, reqs)
				digest := replayChecked(t, c, reqs)

				// Determinism: a fresh instance over the same trace
				// makes byte-identical decisions.
				c2 := build(t, baseName(label), params, reqs)
				if d2 := replayChecked(t, c2, reqs); d2 != digest {
					t.Fatalf("seed %d: replay digest %016x != %016x — policy is not deterministic", seed, d2, digest)
				}
			}
		})
	}
}

// replayChecked replays reqs through c asserting the contract at each
// step, and returns the outcome-stream digest.
func replayChecked(t *testing.T, c core.Cache, reqs []trace.Request) uint64 {
	t.Helper()
	h := fnv.New64a()
	for i, r := range reqs {
		lenBefore := c.Len()
		out := c.HandleRequest(r)
		where := func() string { return fmt.Sprintf("request %d (%+v), policy %s", i, r, c.Name()) }

		switch out.Decision {
		case core.Serve, core.Redirect:
		default:
			t.Fatalf("%s: invalid decision %v", where(), out.Decision)
		}
		if out.Decision == core.Redirect && (out.FilledChunks != 0 || out.EvictedChunks != 0) {
			t.Fatalf("%s: redirect mutated the cache: %+v", where(), out)
		}
		if out.FilledBytes != int64(out.FilledChunks)*confChunk {
			t.Fatalf("%s: FilledBytes %d != FilledChunks %d × ChunkSize", where(), out.FilledBytes, out.FilledChunks)
		}
		if len(out.FilledIDs) != out.FilledChunks {
			t.Fatalf("%s: %d FilledIDs for FilledChunks=%d", where(), len(out.FilledIDs), out.FilledChunks)
		}
		if len(out.EvictedIDs) != out.EvictedChunks {
			t.Fatalf("%s: %d EvictedIDs for EvictedChunks=%d", where(), len(out.EvictedIDs), out.EvictedChunks)
		}
		if got, want := c.Len(), lenBefore+out.FilledChunks-out.EvictedChunks; got != want {
			t.Fatalf("%s: Len %d after fill=%d evict=%d from %d (want %d)", where(), got, out.FilledChunks, out.EvictedChunks, lenBefore, want)
		}
		if c.Len() > confDisk {
			t.Fatalf("%s: capacity exceeded: Len %d > %d", where(), c.Len(), confDisk)
		}
		for _, id := range out.FilledIDs {
			if !c.Contains(id) {
				t.Fatalf("%s: filled chunk %v not resident", where(), id)
			}
		}
		for _, id := range out.EvictedIDs {
			if c.Contains(id) {
				t.Fatalf("%s: evicted chunk %v still resident", where(), id)
			}
		}
		// A policy that can audit its own bookkeeping (Cafe: every
		// resident chunk is keyed in the ordered set by exactly what its
		// popularity state implies) is audited after every request.
		if ic, ok := c.(interface{ CheckInvariants() error }); ok {
			if err := ic.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", where(), err)
			}
		}
		digestOutcome(h, out)
	}
	return h.Sum64()
}

// TestConformanceForget checks fill-failure rollback on every policy
// that supports it: Forget removes exactly the one chunk, is a no-op
// for absent chunks, and the cache keeps serving afterwards.
func TestConformanceForget(t *testing.T) {
	for label, params := range conformanceCases() {
		t.Run(label, func(t *testing.T) {
			reqs := confTrace(7, 2500)
			c := build(t, baseName(label), params, reqs)
			f, ok := c.(interface{ Forget(chunk.ID) })
			if !ok {
				t.Skipf("%s does not implement Forget", c.Name())
			}
			forgotten := 0
			for _, r := range reqs {
				out := c.HandleRequest(r)
				if out.FilledChunks == 0 || forgotten >= 5 {
					continue
				}
				id := out.FilledIDs[0]
				lenBefore := c.Len()
				f.Forget(id)
				if c.Contains(id) {
					t.Fatalf("%s: Forget(%v) left the chunk resident", c.Name(), id)
				}
				if c.Len() != lenBefore-1 {
					t.Fatalf("%s: Forget changed Len by %d, want -1", c.Name(), c.Len()-lenBefore)
				}
				f.Forget(id) // absent: must be a no-op
				if c.Len() != lenBefore-1 {
					t.Fatalf("%s: Forget of absent chunk changed Len", c.Name())
				}
				forgotten++
			}
			if forgotten == 0 {
				t.Fatalf("%s: trace produced no fills to roll back", c.Name())
			}
		})
	}
}

// TestConformanceSharded runs every online policy inside a lock-shard
// group under the parallel replay engine — with -race this is the
// registry-wide concurrent-use check — and pins that two parallel
// replays agree with each other and with the counters' invariants.
func TestConformanceSharded(t *testing.T) {
	model, err := cost.NewModel(2)
	if err != nil {
		t.Fatal(err)
	}
	for label, params := range conformanceCases() {
		spec, ok := policy.Lookup(baseName(label))
		if !ok {
			t.Fatalf("unregistered case %q", label)
		}
		if spec.NeedsTrace {
			continue // offline policies cannot shard (sub-traces lie)
		}
		t.Run(label, func(t *testing.T) {
			t.Parallel()
			reqs := confTrace(11, 4000)
			run := func() *sim.Result {
				g, err := shard.New(4, core.Config{ChunkSize: confChunk, DiskChunks: 4 * confDisk}, func(_ int, sub core.Config) (core.Cache, error) {
					return policy.NewWithEnv(baseName(label), sub, policy.Env{Alpha: 2}, params)
				})
				if err != nil {
					t.Fatal(err)
				}
				res, err := sim.ReplayParallel(g, trace.Slice(reqs), model, sim.Options{Workers: 4})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a, b := run(), run()
			if a.Served != b.Served || a.Redirected != b.Redirected ||
				a.FilledChunks != b.FilledChunks || a.EvictedChunks != b.EvictedChunks {
				t.Fatalf("parallel replay not deterministic:\n  a = %+v\n  b = %+v", a, b)
			}
			if a.Served+a.Redirected != len(reqs) {
				t.Fatalf("served %d + redirected %d != %d requests", a.Served, a.Redirected, len(reqs))
			}
		})
	}
}
