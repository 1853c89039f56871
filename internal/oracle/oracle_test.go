package oracle

import (
	"fmt"
	"testing"

	"videocdn/internal/policy"
)

// matrixCell is one oracle configuration of TestCheckMatrix.
type matrixCell struct {
	algo, kind string
	disk       int // chunks
	hot        int64
}

// matrixDisks is the disk axis, in chunks: a disk the generated
// workload overflows at once, and one eight times larger.
var matrixDisks = []int{16, 128}

// name is the cell's subtest name. The disk is given in 16-chunk units
// as shards=N, the name each cell has carried since the axis counted
// 16-chunk lock shards, so a cell's test ID stays the same: shards=1
// is the 16-chunk disk and shards=8 the 128-chunk one.
func (c matrixCell) name() string {
	return fmt.Sprintf("%s/%s/shards=%d/hot=%d", c.algo, c.kind, c.disk/16, c.hot)
}

// matrixCells builds the policy axis from the registry: the paper's
// two production policies (cafe, xlru) sweep the full {store}×{disk}×
// {hot} matrix, and every OTHER registered online policy — present and
// future — gets a reduced sweep (slab store, hot off, both disks). A
// newly registered policy is oracle-checked with zero edits to this
// file.
func matrixCells() []matrixCell {
	var cells []matrixCell
	for _, algo := range []string{"cafe", "xlru"} {
		for _, kind := range []string{"mem", "fs", "slab"} {
			for _, disk := range matrixDisks {
				for _, hot := range []int64{0, 32 << 10} {
					cells = append(cells, matrixCell{algo, kind, disk, hot})
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
		for _, disk := range matrixDisks {
			cells = append(cells, matrixCell{algo, "slab", disk, 0})
		}
	}
	return cells
}

// TestCheckMatrix runs the oracle across the configuration matrix:
// every registered online policy, {mem,fs,slab} stores × {16,128}-chunk
// disks × {off,32KB} hot tier (full matrix for cafe/xlru, reduced for the
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
		t.Run(c.name(), func(t *testing.T) {
			t.Parallel()
			for _, seed := range seeds {
				res, err := Check(CheckConfig{
					Algo: c.algo, StoreKind: c.kind, DiskChunks: c.disk,
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
// the canonical determinism run (slab store, seed 7, 250 ops) per
// policy, on the 128- and the 16-chunk disk. They pin two properties
// at once:
// replay is bit-identical across runs, AND the registry refactor
// changed zero behavior — any change to a policy's decisions, the
// servers' response bytes, or the Eq. 2 arithmetic shows up here. If
// a digest changes for a *deliberate* behavior change, rerun the test
// and update the literal from the failure message.
var pinnedDigests = map[string]map[int]string{
	"cafe": {128: "cf867f83eade7198", 16: "ffc304d8b6eb0055"},
	"xlru": {128: "7f8a17be14eee381", 16: "8669226e247ac8b8"},
	"lru":  {128: "37ca8dcb97b3e566", 16: "70639baa0d60ce2b"},
	"lruq": {128: "37ca92cb97b3ede5", 16: "351730a854731935"},
}

// TestCheckDeterministic pins the bit-identical replay guarantee per
// policy: two runs with the same config and seed must produce the
// pinned digest (responses and final stats), and a different seed
// must not. The 16-chunk disk is pinned by digest alone.
func TestCheckDeterministic(t *testing.T) {
	for algo, want := range pinnedDigests {
		algo, want := algo, want
		t.Run(algo, func(t *testing.T) {
			t.Parallel()
			small, err := Check(CheckConfig{Algo: algo, StoreKind: "slab", DiskChunks: 16, Seed: 7, Ops: 250, Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if small.Digest != want[16] {
				t.Fatalf("16-chunk digest %s != pinned %s — %s's observable behavior changed; update pinnedDigests only if the change is deliberate", small.Digest, want[16], algo)
			}
			cfg := CheckConfig{Algo: algo, StoreKind: "slab", DiskChunks: 128, Seed: 7, Ops: 250}
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
			if a.Digest != want[128] {
				t.Fatalf("digest %s != pinned %s — %s's observable behavior changed; update pinnedDigests only if the change is deliberate", a.Digest, want[128], algo)
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
// mmap slab, whose loans must leave it empty. The store is invisible
// too: both kinds give the pinned digest.
func TestHotTierDigestInvariant(t *testing.T) {
	const pinned = "1b26d51be3867be6"
	for _, kind := range []string{"fs", "slab"} {
		base := CheckConfig{Algo: "cafe", StoreKind: kind, DiskChunks: 128, Seed: 11, Ops: 250}
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
		if digests[0] != pinned {
			t.Errorf("%s hot-off digest %s != pinned %s", kind, digests[0], pinned)
		}
		for hot, d := range digests {
			if d != digests[0] {
				t.Errorf("%s hot=%d digest %s != hot-off digest %s (tier changed an observable)", kind, hot, d, digests[0])
			}
		}
	}
}
