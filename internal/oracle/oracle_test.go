package oracle

import (
	"fmt"
	"testing"

	"videocdn/internal/policy"
)

// matrixCell is one oracle configuration of TestCheckMatrix.
type matrixCell struct {
	algo, kind string
	shards     int
	hot        int64
}

// matrixCells builds the policy axis from the registry: the paper's
// two production policies (cafe, xlru) sweep the full {store}×{shards}×
// {hot} matrix, and every OTHER registered online policy — present and
// future — gets a reduced sweep (slab store, hot off, both shard
// counts). A newly registered policy is oracle-checked with zero edits
// to this file.
func matrixCells() []matrixCell {
	var cells []matrixCell
	for _, algo := range []string{"cafe", "xlru"} {
		for _, kind := range []string{"mem", "fs", "slab"} {
			for _, shards := range []int{1, 8} {
				for _, hot := range []int64{0, 32 << 10} {
					cells = append(cells, matrixCell{algo, kind, shards, hot})
				}
			}
		}
	}
	for _, algo := range policy.Names() {
		if algo == "cafe" || algo == "xlru" {
			continue
		}
		if spec, _ := policy.Lookup(algo); spec.NeedsTrace {
			continue // offline policies cannot serve live traffic
		}
		for _, shards := range []int{1, 8} {
			cells = append(cells, matrixCell{algo, "slab", shards, 0})
		}
	}
	return cells
}

// TestCheckMatrix runs the oracle across the configuration matrix:
// every registered online policy, {mem,fs,slab} stores × {1,8} shards
// × {off,32KB} hot tier (full matrix for cafe/xlru, reduced for the
// rest), each with fixed seeds. Any response diff, any ledger drift,
// any coherence violation fails with the op index and seed needed to
// replay it (go test -run or cmd/checker -seed). The 32 KB hot budget is deliberately tiny
// relative to the working set so over fs promotion, admission
// rejection, and eviction all churn under the two-tier coherence check;
// over mem and the (mmap) slab, which lend their bytes, the one-copy
// check holds the tier to empty.
func TestCheckMatrix(t *testing.T) {
	ops := 400
	seeds := []int64{1, 2}
	if testing.Short() {
		ops = 150
		seeds = seeds[:1]
	}
	cells := matrixCells()
	algos := map[string]bool{}
	for _, c := range cells {
		algos[c.algo] = true
	}
	if len(algos) < 4 {
		t.Fatalf("matrix covers %d policies, want >= 4: %v", len(algos), algos)
	}
	for _, c := range cells {
		c := c
		name := fmt.Sprintf("%s/%s/shards=%d/hot=%d", c.algo, c.kind, c.shards, c.hot)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range seeds {
				res, err := Check(CheckConfig{
					Algo: c.algo, StoreKind: c.kind, Shards: c.shards,
					HotBytes: c.hot, Seed: seed, Ops: ops, Dir: t.TempDir(),
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Gets == 0 || res.OK200+res.Partial206 == 0 || res.Found302 == 0 {
					t.Errorf("seed %d: degenerate op mix: %s", seed, res)
				}
				t.Logf("seed %d: %s", seed, res)
			}
		})
	}
}

// pinnedDigests are the expected full response-and-stats digests of
// the canonical determinism run (slab store, 8 shards, seed 7, 250
// ops) per policy. They pin two properties at once:
// replay is bit-identical across runs, AND the registry refactor
// changed zero behavior — any change to a policy's decisions, the
// servers' response bytes, or the Eq. 2 arithmetic shows up here. If
// a digest changes for a *deliberate* behavior change, rerun the test
// and update the literal from the failure message.
var pinnedDigests = map[string]string{
	"cafe": "f1def2df4cd9857b",
	"xlru": "a5f91db988ba9986",
	"lru":  "1023757bccdda00d",
	"lruq": "fe39b165804c22ad",
}

// TestCheckDeterministic pins the bit-identical replay guarantee per
// policy: two runs with the same config and seed must produce the
// pinned digest (responses and final stats), and a different seed
// must not.
func TestCheckDeterministic(t *testing.T) {
	for algo, want := range pinnedDigests {
		algo, want := algo, want
		t.Run(algo, func(t *testing.T) {
			t.Parallel()
			cfg := CheckConfig{Algo: algo, StoreKind: "slab", Shards: 8, Seed: 7, Ops: 250}
			cfg.Dir = t.TempDir()
			a, err := Check(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Dir = t.TempDir()
			b, err := Check(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if a.Digest != b.Digest {
				t.Fatalf("same seed, different digests: %s vs %s", a.Digest, b.Digest)
			}
			if a.String() != b.String() {
				t.Fatalf("same seed, different results:\n%s\n%s", a, b)
			}
			if a.Digest != want {
				t.Fatalf("digest %s != pinned %s — %s's observable behavior changed; update pinnedDigests only if the change is deliberate", a.Digest, want, algo)
			}
			cfg.Dir = t.TempDir()
			cfg.Seed = 8
			c, err := Check(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if c.Digest == a.Digest {
				t.Fatalf("different seeds produced identical digest %s", a.Digest)
			}
		})
	}
}

// TestHotTierDigestInvariant pins the strongest form of the tier's
// invisibility: the full response-and-stats digest — which folds in
// every payload byte, every Location, and the bit-exact Eq. 2
// efficiency — is identical with the hot tier off, tiny, and huge,
// both over fs, whose reads copy and so fill the tier, and over the
// mmap slab, whose loans must leave it empty.
func TestHotTierDigestInvariant(t *testing.T) {
	for _, kind := range []string{"fs", "slab"} {
		base := CheckConfig{Algo: "cafe", StoreKind: kind, Shards: 8, Seed: 11, Ops: 250}
		digests := map[int64]string{}
		for _, hot := range []int64{0, 32 << 10, 1 << 30} {
			cfg := base
			cfg.HotBytes = hot
			cfg.Dir = t.TempDir()
			res, err := Check(cfg)
			if err != nil {
				t.Fatal(err)
			}
			digests[hot] = res.Digest
			if hot > 0 && (res.PeakHotChunks > 0) != (kind == "fs") {
				t.Errorf("%s hot=%d: at most %d chunks hot-resident (a tier fills over a store that copies, and only there)",
					kind, hot, res.PeakHotChunks)
			}
		}
		for hot, d := range digests {
			if d != digests[0] {
				t.Errorf("%s hot=%d digest %s != hot-off digest %s (tier changed an observable)", kind, hot, d, digests[0])
			}
		}
	}
}
