package psychic

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/trace"
)

// refHandleRequest is HandleRequest as it decided before it learnt to
// sum Eq. 14 first: on a full disk scan for victims, sum Eq. 13 over
// fills and victims, sum Eq. 14, compare. floor reports that the fills
// alone were not cheaper than redirecting, victims how many the scan
// found. Everything around the decision is the production code.
func (c *Cache) refHandleRequest(r trace.Request) (out core.Outcome, floor bool, victims int) {
	pos := c.pos
	c.pos++
	now := r.Time
	c0, c1 := r.ChunkRange(c.cfg.ChunkSize)
	nChunks := int(c1-c0) + 1
	for ci := c0; ci <= c1; ci++ {
		c.ix.Advance(chunk.ID{Video: r.Video, Index: ci}, pos)
	}
	if nChunks > c.cfg.DiskChunks {
		c.rekeyCached(r.Video, c0, c1)
		return core.Outcome{Decision: core.Redirect}, false, 0
	}
	var missing []chunk.ID
	for ci := c0; ci <= c1; ci++ {
		if id := (chunk.ID{Video: r.Video, Index: ci}); !c.Contains(id) {
			missing = append(missing, id)
		}
	}
	free := c.cfg.DiskChunks - c.tree.Len()
	window := c.CacheAge(now)
	scanned := c.tree.AppendFirstOutside(nil, len(missing)-free,
		chunk.ID{Video: r.Video, Index: c0}.Key(), chunk.ID{Video: r.Video, Index: c1}.Key())
	costServe := float64(len(missing)) * c.cf
	for _, h := range scanned {
		costServe += c.futureCost(chunk.FromKey(c.tree.ID(h)), now, window)
	}
	costRedirect := float64(nChunks) * c.cr
	for _, id := range missing {
		costRedirect += c.futureCost(id, now, window)
	}
	floor = free < len(missing) && !(float64(len(missing))*c.cf < costRedirect)
	if len(missing) > 0 && (len(scanned) < len(missing)-free || !(costServe < costRedirect)) {
		c.rekeyCached(r.Video, c0, c1)
		return core.Outcome{Decision: core.Redirect}, floor, len(scanned)
	}

	evicted := make([]chunk.ID, 0, len(scanned))
	for _, h := range scanned {
		evicted = append(evicted, chunk.FromKey(c.evict(h, now)))
	}
	for _, id := range missing {
		c.insertedAt[id.Key()] = now
	}
	for ci := c0; ci <= c1; ci++ {
		id := chunk.ID{Video: r.Video, Index: ci}
		c.tree.Insert(id.Key(), c.nextKey(id))
	}
	return core.Outcome{
		Decision:      core.Serve,
		FilledChunks:  len(missing),
		FilledBytes:   int64(len(missing)) * c.cfg.ChunkSize,
		EvictedChunks: len(evicted),
		FilledIDs:     missing,
		EvictedIDs:    evicted,
	}, floor, len(scanned)
}

// TestDecideFirstMatchesScanFirst replays seeded random traces, requests
// wider than the disk included, through the production path and through
// the reference on a second cache, and requires the same outcome at
// every step. At alpha 0.5 the fills alone are always cheaper than
// redirecting (C_F < C_R), so the production path always scans; at
// alpha >= 1 a request whose chunks never return always redirects
// without a scan.
func TestDecideFirstMatchesScanFirst(t *testing.T) {
	for _, alpha := range []float64{0.5, 1, 2, 4} {
		for _, disk := range []int{24, 6} {
			t.Run(fmt.Sprintf("alpha=%v/disk=%d", alpha, disk), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(disk)))
				var reqs []trace.Request
				tm := int64(0)
				for i := 0; i < 4000; i++ {
					tm += int64(rng.Intn(4))
					v, c0 := chunk.VideoID(rng.Intn(40)), rng.Intn(6)
					switch op := rng.Intn(24); {
					case op == 0: // wider than the disk
						reqs = append(reqs, req(tm, v, c0, c0+disk+rng.Intn(3)))
					case op <= 3: // a video requested this once
						reqs = append(reqs, req(tm, chunk.VideoID(1000+i), c0, c0+rng.Intn(4)))
					default:
						reqs = append(reqs, req(tm, v, c0, c0+rng.Intn(4)))
					}
				}
				prod, ref := newCache(t, disk, alpha, reqs), newCache(t, disk, alpha, reqs)
				var floors, scans, serves int
				for i, r := range reqs {
					prod.victims = prod.victims[:0]
					got := prod.HandleRequest(r)
					want, floor, victims := ref.refHandleRequest(r)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d, request %+v: outcome %+v, reference %+v", i, r, got, want)
					}
					// The production path scanned iff the floor let it.
					if scanned := len(prod.victims); floor && scanned != 0 || !floor && scanned != victims {
						t.Fatalf("step %d, request %+v: production scanned %d victims, reference %d (floor: %v)", i, r, scanned, victims, floor)
					}
					if floor {
						floors++
						if alpha < 1 {
							t.Fatalf("step %d: the floor fired at alpha %v, where C_F < C_R", i, alpha)
						}
					} else if victims > 0 {
						scans++
					}
					if alpha >= 1 && r.Video >= 1000 && victims > 0 && !floor {
						t.Fatalf("step %d: chunks with no future got past the floor at alpha %v", i, alpha)
					}
					if got.EvictedChunks > 0 {
						serves++
					}
				}
				if scans == 0 || serves == 0 || (alpha >= 1) != (floors > 0) {
					t.Errorf("weak trace: %d settled by the floor, %d scans, %d evicting serves", floors, scans, serves)
				}
			})
		}
	}
}
