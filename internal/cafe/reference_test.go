package cafe

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/trace"
)

// sameOutcome compares two outcomes with their IDs by content: a
// recycled empty buffer is not nil.
func sameOutcome(a, b core.Outcome) bool {
	return a.Decision == b.Decision && a.FilledChunks == b.FilledChunks && a.FilledBytes == b.FilledBytes &&
		a.EvictedChunks == b.EvictedChunks && slices.Equal(a.FilledIDs, b.FilledIDs) && slices.Equal(a.EvictedIDs, b.EvictedIDs)
}

// refDecision is what the reference saw on the way to its decision.
type refDecision struct {
	costed  bool // the disk was full: Eqs. 6-7 decided, not a hit or warmup
	floor   bool // |S'|·C_F alone was not below Eq. 7
	victims int  // chunks the scan returned
}

// refHandleRequest is HandleRequest as it decided before it learnt to
// look at Eq. 7 first: scan the ordered set for victims, then find each
// victim's state by ID through videos, sum Eq. 6, sum Eq. 7, compare.
// It never reads the owner table. Everything around the decision —
// observe, rekey, place — is the production code both share.
func (c *Cache) refHandleRequest(r trace.Request) (core.Outcome, refDecision) {
	var dec refDecision
	now := r.Time
	if !c.started {
		c.firstTime = now
		c.started = true
	}
	c.lastTime = now
	c.requests++
	if c.requests%cleanupInterval == 0 {
		c.cleanup(now)
	}

	c0, c1 := r.ChunkRange(c.cfg.ChunkSize)
	nChunks := int(c1-c0) + 1
	v := c.record(r.Video, c1)
	if nChunks > c.cfg.DiskChunks {
		c.observe(v, c0, c1, now)
		c.rekey(v, c0, c1)
		return core.Outcome{Decision: core.Redirect}, dec
	}
	var missing []chunk.ID
	for ci := c0; ci <= c1; ci++ {
		if v.chunks[ci].h == 0 {
			missing = append(missing, chunk.ID{Video: r.Video, Index: ci})
		}
	}

	serve := false
	var victims []uint64
	free := c.cfg.DiskChunks - c.tree.Len()
	needEvict := len(missing) - free
	switch {
	case len(missing) == 0, free >= len(missing):
		serve = true
	default:
		dec.costed = true
		loKey := chunk.ID{Video: r.Video, Index: c0}.Key()
		hiKey := chunk.ID{Video: r.Video, Index: c1}.Key()
		for _, h := range c.tree.AppendFirstOutside(nil, needEvict, loKey, hiKey) {
			victims = append(victims, c.tree.ID(h))
		}
		dec.victims = len(victims)
		least, _ := c.tree.Min()
		age, ok := c.history(chunk.FromKey(c.tree.ID(least)))
		if !ok {
			panic("reference: least popular chunk without IAT state")
		}
		window := c.iatAt(age, now) * c.opt.WindowScale
		costServe := float64(len(missing)) * c.cf
		for _, vid := range victims {
			e, ok := c.history(chunk.FromKey(vid))
			if !ok {
				panic("reference: eviction candidate without IAT state")
			}
			costServe += c.futureCost(e, now, window)
		}
		costRedirect := float64(nChunks) * c.cr
		videoEst, videoEstOK := c.videoEstimate(v, now)
		for _, id := range missing {
			st := c.popularity(v, id.Index)
			switch {
			case st.seen && st.dt != unknownDT:
				costRedirect += c.futureCost(st.iatEntry, now, window)
			case st.seen:
				costRedirect += c.futureCost(iatEntry{dt: float64(now - st.t), t: now}, now, window)
			case videoEstOK:
				costRedirect += c.futureCost(iatEntry{dt: videoEst, t: now}, now, window)
			}
		}
		dec.floor = !(float64(len(missing))*c.cf < costRedirect)
		serve = len(victims) >= needEvict && costServe < costRedirect
		if !serve {
			victims = nil
		}
	}
	if serve && len(missing) > 0 && c.fillGate != nil && !c.fillGate(len(missing), now) {
		serve = false
	}
	c.observe(v, c0, c1, now)
	if !serve {
		c.rekey(v, c0, c1)
		return core.Outcome{Decision: core.Redirect}, dec
	}

	evicted := make([]chunk.ID, 0, len(victims))
	for _, vid := range victims {
		id := chunk.FromKey(vid)
		rec := c.videos[id.Video]
		c.tree.Remove(rec.chunks[id.Index].h)
		rec.chunks[id.Index].h = 0
		rec.cached--
		evicted = append(evicted, id)
	}
	for ci := c0; ci <= c1; ci++ {
		pop := c.popularity(v, ci)
		if pop.dt == unknownDT {
			pop.dt = math.Max(float64(now-c.firstTime), 1)
		}
		c.place(v, chunk.ID{Video: r.Video, Index: ci}, c.treeKey(pop.iatEntry))
	}
	if c.opt.FileLevel {
		c.rekey(v, c0, c1)
	}
	return core.Outcome{
		Decision:      core.Serve,
		FilledChunks:  len(missing),
		FilledBytes:   int64(len(missing)) * c.cfg.ChunkSize,
		EvictedChunks: len(evicted),
		FilledIDs:     missing,
		EvictedIDs:    evicted,
	}, dec
}

// TestDecideFirstMatchesScanFirst replays seeded random traces through
// the production path and through the reference on a second cache, and
// requires the same outcome at every step — decisions, fill and
// eviction lists in order — across the cost ratios and ablations. The
// traces hold requests wider than the disk, videos never seen before,
// prefetches and forgotten fills.
func TestDecideFirstMatchesScanFirst(t *testing.T) {
	variants := []struct {
		name   string
		opt    Options
		refuse bool // install a fill gate that refuses some fills
	}{
		{"default", Options{}, false},
		{"file-level", Options{FileLevel: true}, false},
		{"no-video-estimate", Options{NoVideoEstimate: true}, false},
		{"window-half", Options{WindowScale: 0.5}, false},
		{"window-triple", Options{WindowScale: 3}, false},
		{"fill-gate", Options{}, true},
	}
	for _, alpha := range []float64{0.5, 1, 2, 4} {
		for _, vr := range variants {
			for _, disk := range []int{24, 6} {
				t.Run(fmt.Sprintf("alpha=%v/%s/disk=%d", alpha, vr.name, disk), func(t *testing.T) {
					prod, ref := newCache(t, disk, alpha, vr.opt), newCache(t, disk, alpha, vr.opt)
					if vr.refuse {
						gate := func(chunks int, now int64) bool { return (int64(chunks)+now)%3 != 0 }
						prod.SetFillGate(gate)
						ref.SetFillGate(gate)
					}
					rng := rand.New(rand.NewSource(int64(disk)))
					fresh := chunk.VideoID(1000)
					var costed, floors, scans, serves int
					tm := int64(0)
					for i := 0; i < 6000; i++ {
						tm += int64(rng.Intn(4))
						v, c0 := chunk.VideoID(zipfIsh(rng, 60)), rng.Intn(6)
						id := chunk.ID{Video: v, Index: uint32(c0)}
						switch op := rng.Intn(24); {
						case op == 0:
							a, ae := prod.PrefetchChunk(id, tm)
							b, be := ref.PrefetchChunk(id, tm)
							if a != b || !reflect.DeepEqual(ae, be) {
								t.Fatalf("step %d: PrefetchChunk(%s) = %v %v, reference %v %v", i, id, a, ae, b, be)
							}
						case op == 1:
							prod.Forget(id)
							ref.Forget(id)
						default:
							r := req(tm, v, c0, c0+rng.Intn(4))
							neverSeen := false
							switch {
							case op == 2: // wider than the disk
								r = req(tm, v, c0, c0+disk+rng.Intn(3))
							case op <= 5: // a video never seen before
								fresh++
								r, neverSeen = req(tm, fresh, c0, c0+rng.Intn(4)), true
							}
							prod.victimsBuf = prod.victimsBuf[:0]
							got := prod.HandleRequest(r)
							want, dec := ref.refHandleRequest(r)
							if !sameOutcome(got, want) {
								t.Fatalf("step %d, request %+v: outcome %+v, reference %+v (%+v)", i, r, got, want, dec)
							}
							// The production path scanned iff the floor let it.
							if scanned := len(prod.victimsBuf); dec.costed && dec.floor && scanned != 0 ||
								dec.costed && !dec.floor && scanned != dec.victims {
								t.Fatalf("step %d, request %+v: production scanned %d victims, reference %+v", i, r, scanned, dec)
							}
							if dec.costed {
								costed++
								if dec.floor {
									floors++
								} else if dec.victims > 0 {
									scans++
								}
								if alpha < 1 && dec.floor {
									t.Fatalf("step %d: the floor fired at alpha %v, where C_F < C_R", i, alpha)
								}
								if alpha >= 1 && neverSeen && !dec.floor {
									t.Fatalf("step %d: a never-seen video at alpha %v got past the floor", i, alpha)
								}
							}
							if got.Decision == core.Serve && got.EvictedChunks > 0 {
								serves++
							}
						}
						if i%8 != 0 {
							continue
						}
						for _, c := range []*Cache{prod, ref} {
							if err := c.CheckInvariants(); err != nil {
								t.Fatalf("step %d: %v", i, err)
							}
						}
					}
					// The trace must reach both sides of the floor (one side
					// at alpha 0.5) and evict through the handle path.
					if costed < 500 || scans == 0 || serves == 0 || (alpha >= 1) != (floors > 0) {
						t.Errorf("weak trace: %d cost decisions, %d settled by the floor, %d scans, %d evicting serves", costed, floors, scans, serves)
					}
				})
			}
		}
	}
}
