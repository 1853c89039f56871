package cafe

import (
	"math"
	"math/rand"
	"testing"

	"videocdn/internal/chunk"
	"videocdn/internal/core"
)

// The load-bearing invariant behind Cafe's data structure: at any
// moment, ascending tree-key order equals descending IAT order when
// every cached chunk's IAT is brute-force evaluated at the current
// time (Theorem 1). If the stored invariant keys ever diverged from
// live IAT order, eviction would pick wrong victims silently.
func TestTreeOrderMatchesLiveIATOrder(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		rng := rand.New(rand.NewSource(seed))
		c, err := New(coreCfg(64), 2, Options{})
		if err != nil {
			t.Fatal(err)
		}
		tm := int64(0)
		for i := 0; i < 3000; i++ {
			v := chunk.VideoID(rng.Intn(40))
			c0 := rng.Intn(4)
			c.HandleRequest(req(tm, v, c0, c0+rng.Intn(4)))
			tm += int64(rng.Intn(30))

			if i%100 != 0 {
				continue
			}
			// Walk the tree in ascending key order and evaluate each
			// chunk's IAT live.
			var iats []float64
			violation := false
			c.tree.Ascend(func(id uint64, _ float64) bool {
				e, ok := c.history(chunk.FromKey(id))
				if !ok || e.dt == unknownDT {
					violation = true
					return false
				}
				iats = append(iats, c.iatAt(e, tm))
				return true
			})
			if violation {
				t.Fatalf("seed %d step %d: cached chunk without IAT state", seed, i)
			}
			for j := 1; j < len(iats); j++ {
				if iats[j] > iats[j-1]+1e-6 {
					t.Fatalf("seed %d step %d: tree order violates IAT order at %d: %v > %v",
						seed, i, j, iats[j], iats[j-1])
				}
			}
			// Cache age must equal the largest live IAT.
			if len(iats) > 0 {
				if age := c.CacheAge(tm); math.Abs(age-iats[0]) > 1e-6 {
					t.Fatalf("seed %d step %d: CacheAge %v != max IAT %v", seed, i, age, iats[0])
				}
			}
		}
	}
}

// Eviction victims must always be the least popular cached chunks
// (largest IATs) among non-requested chunks — cross-checked by brute
// force on every eviction.
func TestEvictionPicksLeastPopular(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c, err := New(coreCfg(32), 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tm := int64(0)
	for i := 0; i < 2000; i++ {
		v := chunk.VideoID(rng.Intn(25))
		c0 := rng.Intn(3)
		c1 := c0 + rng.Intn(3)

		// Snapshot the cached set with live IATs before the request.
		type entry struct {
			id  uint64
			iat float64
		}
		var cached []entry
		c.tree.Ascend(func(id uint64, _ float64) bool {
			e, _ := c.history(chunk.FromKey(id))
			cached = append(cached, entry{id, c.iatAt(e, tm)})
			return true
		})
		requested := map[uint64]bool{}
		for ci := c0; ci <= c1; ci++ {
			requested[(chunk.ID{Video: v, Index: uint32(ci)}).Key()] = true
		}

		out := c.HandleRequest(req(tm, v, c0, c1))
		if out.EvictedChunks > 0 {
			// Brute force: the least popular (largest IAT) cached
			// non-requested chunks. The tree yields them in ascending
			// key order = descending IAT order.
			var eligible []entry
			for _, e := range cached {
				if !requested[e.id] {
					eligible = append(eligible, e)
				}
			}
			// eligible is already in descending-IAT order (from the
			// ascending-key walk); victims must be its prefix up to
			// IAT ties.
			for vi, victim := range out.EvictedIDs {
				want := eligible[vi]
				if victim.Key() != want.id {
					// Allow ties: victim's IAT must equal the
					// expected one.
					var got float64
					found := false
					for _, e := range eligible {
						if e.id == victim.Key() {
							got = e.iat
							found = true
							break
						}
					}
					if !found || math.Abs(got-want.iat) > 1e-6 {
						t.Fatalf("step %d: victim %d has IAT %v, brute force wanted %v",
							i, vi, got, want.iat)
					}
				}
			}
		}
		tm += int64(rng.Intn(20))
	}
}

func coreCfg(disk int) core.Config {
	return core.Config{ChunkSize: testK, DiskChunks: disk}
}
