// Package cafe implements the paper's Cafe Cache (Section 6): a
// Chunk-Aware, Fill-Efficient video cache.
//
// Where xLRU gates admission with a file-level recency test, Cafe
// compares the expected cost of serving against the expected cost of
// redirecting each request, using per-chunk inter-arrival times (IATs)
// tracked as exponentially weighted moving averages (Eq. 8, gamma =
// 0.25 in the paper's experiments):
//
//	E[Cost_serve]    = |S'|·C_F + Σ_{x∈S''} (T/IAT_x)·min(C_F,C_R)   (Eq. 6)
//	E[Cost_redirect] = |S|·C_R  + Σ_{x∈S'}  (T/IAT_x)·min(C_F,C_R)   (Eq. 7)
//
// with S the requested chunks, S' ⊆ S the missing ones, S” the
// eviction victims should we fill, and T the future window (the cache
// age). The request is served iff serving is strictly cheaper —
// breaking ties toward redirect is what keeps never-before-seen files
// out of the cache for every alpha, as Section 9.2 observes.
//
// # Ordering chunks by popularity (Theorem 1)
//
// Cafe keeps cached chunks in an ordered set (internal/ordtree) so the
// least popular (largest IAT) chunks can be found. The paper keys chunk x
// at insertion time t with the virtual timestamp key_x(t) = t −
// IAT_x(t). Expanding Eq. 8,
//
//	key_x(t) = (1−γ)·t + [γ·t_x − (1−γ)·dt_x],
//
// the time-dependent part (1−γ)·t is common to all chunks, so pairwise
// order depends only on the bracketed chunk-specific part — that is
// Theorem 1. We therefore store the time-invariant part
//
//	k_x = γ·t_x − (1−γ)·dt_x
//
// directly as the set's key (equivalent to evaluating every key at the
// same fixed reference T0 = 0, which the theorem requires; storing keys
// evaluated at each chunk's own insertion time would *not* preserve
// pairwise order). A handy identity: t − key_x(t) = IAT_x(t), so the
// cache age T is simply the IAT of the minimum-key (least popular)
// cached chunk evaluated at t_now.
//
// # Unseen chunks
//
// A requested chunk never seen before, belonging to a video with
// cached chunks, gets its IAT estimated as the largest IAT among the
// video's cached chunks. A chunk with no information at all contributes
// no expected future cost.
//
// # State layout
//
// All per-chunk state lives in one record per video holding a slice
// indexed by chunk index: a request does one map lookup, for its video,
// and indexes from there, and a cached chunk carries its ordtree handle
// so re-keying it looks nothing up either. The slice reaches to the
// highest chunk index the video was ever asked for. The other direction
// — from an eviction victim or the set's minimum, which the ordered set
// names by handle, back to the chunk's state — goes through owner, a
// slice indexed by handle, so it is map-free too.
package cafe

import (
	"fmt"
	"math"

	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/ordtree"
	"videocdn/internal/trace"
)

// DefaultGamma is the EWMA factor used in the paper's experiments.
const DefaultGamma = 0.25

// cleanupInterval controls how often (in requests) stale IAT history is
// pruned.
const cleanupInterval = 8192

// unknownDT marks an IAT entry whose smoothed inter-arrival time has
// not been observed yet (only one request seen).
const unknownDT = -1

// iatEntry is the per-chunk popularity state of Eq. 8.
type iatEntry struct {
	dt float64 // smoothed inter-arrival time; unknownDT if unseen
	t  int64   // last access time t_x
}

// chunkState is everything Cafe knows about one chunk. The zero value
// is a chunk never heard of.
type chunkState struct {
	iatEntry
	seen bool           // the entry holds history (false: never requested, or pruned)
	h    ordtree.Handle // the chunk's item in the ordered set while cached, else 0
}

// video is the per-video record.
type video struct {
	chunks []chunkState // by chunk index, never empty
	cached int          // chunks on disk
}

// Options tune Cafe beyond the shared core.Config.
type Options struct {
	// Gamma is the EWMA weight of Eq. 8. Defaults to DefaultGamma.
	Gamma float64
	// FileLevel degrades popularity tracking to one IAT per video
	// (all chunks of a video share it); the disk itself remains
	// chunk-granular. This is an ablation switch used to quantify the
	// value of chunk-aware tracking; production use leaves it false.
	FileLevel bool
	// NoVideoEstimate disables the unseen-chunk IAT estimation from
	// the video's cached chunks. Ablation switch.
	NoVideoEstimate bool
	// WindowScale scales the future window T relative to the cache
	// age. Defaults to 1 (the paper's choice: T = cache age).
	WindowScale float64
}

// Cache is the Cafe video cache. Not safe for concurrent use.
type Cache struct {
	cfg   core.Config
	alpha float64
	cf    float64
	cr    float64
	minFR float64
	opt   Options

	tree    *ordtree.Tree // cached chunks (packed chunk keys), keyed by k_x
	videos  map[chunk.VideoID]*video
	owner   []*video // by ordtree handle: the record holding that cached chunk, else nil
	tracked int      // chunk states holding history; cleanup's trigger

	firstTime int64
	started   bool
	lastTime  int64
	requests  int64

	fillGate func(chunks int, now int64) bool

	// victimsBuf is the eviction-scan scratch buffer, reused on every
	// request (victim handles never escape HandleRequest). missingBuf and
	// evictedBuf back Outcome.FilledIDs/EvictedIDs until the next request.
	victimsBuf []ordtree.Handle
	missingBuf []chunk.ID
	evictedBuf []chunk.ID
}

// SetFillGate installs an optional admission throttle consulted before
// any cache fill: if the gate refuses the fill volume, the request is
// redirected instead (popularity tracking still sees it). This models
// the disk-write constraint of Section 2 — ingress writes compete with
// cache-hit reads — and is typically wired to a writelimit.Budget.
// Pass nil to remove the gate.
func (c *Cache) SetFillGate(gate func(chunks int, now int64) bool) { c.fillGate = gate }

// New builds a Cafe cache for the given fill-to-redirect preference
// alpha_F2R.
func New(cfg core.Config, alpha float64, opt Options) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if alpha <= 0 {
		return nil, core.ErrBadAlpha
	}
	if opt.Gamma == 0 {
		opt.Gamma = DefaultGamma
	}
	if opt.Gamma < 0 || opt.Gamma > 1 {
		return nil, core.ErrBadGamma
	}
	if opt.WindowScale == 0 {
		opt.WindowScale = 1
	}
	if opt.WindowScale < 0 {
		return nil, core.ErrBadWindow
	}
	cf := 2 * alpha / (alpha + 1)
	cr := 2 / (alpha + 1)
	return &Cache{
		cfg:    cfg,
		alpha:  alpha,
		cf:     cf,
		cr:     cr,
		minFR:  math.Min(cf, cr),
		opt:    opt,
		tree:   ordtree.New(),
		videos: make(map[chunk.VideoID]*video),
	}, nil
}

// Name implements core.Cache.
func (c *Cache) Name() string { return "cafe" }

// Alpha returns the current alpha_F2R.
func (c *Cache) Alpha() float64 { return c.alpha }

// SetAlpha retunes the fill-to-redirect preference at runtime. The
// paper cautions against wide swings (cache pollution and churn) but
// explicitly allows "a small range through a control loop for better
// responsiveness" (Section 10); internal/alphactl builds that loop.
// Only the cost constants change — popularity state and tree keys are
// alpha-independent, so the switch is O(1).
func (c *Cache) SetAlpha(alpha float64) error {
	if alpha <= 0 {
		return core.ErrBadAlpha
	}
	c.alpha = alpha
	c.cf = 2 * alpha / (alpha + 1)
	c.cr = 2 / (alpha + 1)
	c.minFR = math.Min(c.cf, c.cr)
	return nil
}

// Len implements core.Cache.
func (c *Cache) Len() int { return c.tree.Len() }

// Contains implements core.Cache.
func (c *Cache) Contains(id chunk.ID) bool {
	v := c.videos[id.Video]
	return v != nil && int(id.Index) < len(v.chunks) && v.chunks[id.Index].h != 0
}

// reach grows the record to hold chunk index last.
func (v *video) reach(last uint32) {
	if grow := int(last) + 1 - len(v.chunks); grow > 0 {
		v.chunks = append(v.chunks, make([]chunkState, grow)...)
	}
}

// record returns v's record, created if need be, reaching index last.
func (c *Cache) record(v chunk.VideoID, last uint32) *video {
	rec := c.videos[v]
	if rec == nil {
		rec = &video{}
		c.videos[v] = rec
	}
	rec.reach(last)
	return rec
}

// popularity returns the state that tracks chunk ci's popularity: its
// own, or in the file-level ablation the one all chunks of the video
// share (kept at index 0).
func (c *Cache) popularity(v *video, ci uint32) *chunkState {
	if c.opt.FileLevel {
		ci = 0
	}
	return &v.chunks[ci]
}

// history returns the popularity state of id, ok=false if it has none.
// It is the by-ID lookup, for Load; the request path has the record in
// hand or comes from a handle.
func (c *Cache) history(id chunk.ID) (iatEntry, bool) {
	if c.opt.FileLevel {
		id.Index = 0
	}
	v := c.videos[id.Video]
	if v == nil || int(id.Index) >= len(v.chunks) {
		return iatEntry{}, false
	}
	st := &v.chunks[id.Index]
	return st.iatEntry, st.seen
}

// cachedPopularity returns the popularity state of the cached chunk h
// names, found without a map: owner gives the video record, the set the
// chunk's packed key.
func (c *Cache) cachedPopularity(h ordtree.Handle) *chunkState {
	st := c.popularity(c.owner[h], chunk.FromKey(c.tree.ID(h)).Index)
	if !st.seen || st.dt == unknownDT {
		// Every cached chunk is given a concrete dt at fill time;
		// reaching this would mean corrupted bookkeeping.
		panic("cafe: cached chunk without IAT state")
	}
	return st
}

// remember makes e the history of st, counting a state that had none.
func (c *Cache) remember(st *chunkState, e iatEntry) {
	if !st.seen {
		st.seen = true
		c.tracked++
	}
	st.iatEntry = e
}

// iatAt evaluates Eq. 8 at time now for the given entry.
func (c *Cache) iatAt(e iatEntry, now int64) float64 {
	g := c.opt.Gamma
	return g*float64(now-e.t) + (1-g)*e.dt
}

// CacheAge returns the window T: the IAT of the least popular cached
// chunk at time now (see the package comment for why this equals the
// virtual cache age t − key_min(t)). Zero when the disk is empty.
func (c *Cache) CacheAge(now int64) float64 {
	h, ok := c.tree.Min()
	if !ok {
		return 0
	}
	return c.iatAt(c.cachedPopularity(h).iatEntry, now)
}

// treeKey is the time-invariant ordering key k_x = γ·t_x − (1−γ)·dt_x.
func (c *Cache) treeKey(e iatEntry) float64 {
	g := c.opt.Gamma
	return g*float64(e.t) - (1-g)*e.dt
}

// futureCost returns (T/IAT_x)·min(C_F, C_R) — the expected cost of the
// near-future requests for a chunk with IAT state e (Eqs. 6-7).
func (c *Cache) futureCost(e iatEntry, now int64, window float64) float64 {
	iat := c.iatAt(e, now)
	if iat < 1 {
		iat = 1
	}
	return window / iat * c.minFR
}

// HandleRequest implements core.Cache.
func (c *Cache) HandleRequest(r trace.Request) core.Outcome {
	now := r.Time
	if c.started && now < c.lastTime {
		panic("cafe: requests must arrive in non-decreasing time order")
	}
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
		return core.Outcome{Decision: core.Redirect}
	}

	// Partition S into cached and missing (S').
	missing := c.missingBuf[:0]
	for ci := c0; ci <= c1; ci++ {
		if v.chunks[ci].h == 0 {
			missing = append(missing, chunk.ID{Video: r.Video, Index: ci})
		}
	}
	c.missingBuf = missing

	serve := false
	var victims []ordtree.Handle
	free := c.cfg.DiskChunks - c.tree.Len()
	needEvict := len(missing) - free
	if needEvict < 0 {
		needEvict = 0
	}

	switch {
	case len(missing) == 0:
		// Full hit: nothing to fill, serving is free.
		serve = true
	case free >= len(missing):
		// Warmup: free space makes filling unconditionally worthwhile
		// (there is nothing to evict and no cache age to compare to).
		serve = true
	default:
		// Eq. 7 first: it needs only the request's own chunks.
		window := c.CacheAge(now) * c.opt.WindowScale
		costRedirect := float64(nChunks) * c.cr
		videoEst, videoEstOK := c.videoEstimate(v, now)
		for _, id := range missing {
			st := c.popularity(v, id.Index)
			switch {
			case st.seen && st.dt != unknownDT:
				costRedirect += c.futureCost(st.iatEntry, now, window)
			case st.seen:
				// Seen exactly once: bootstrap the IAT from the raw
				// gap, exactly as the Eq. 8 update will on the next
				// observation.
				costRedirect += c.futureCost(iatEntry{dt: float64(now - st.t), t: now}, now, window)
			case videoEstOK:
				costRedirect += c.futureCost(iatEntry{dt: videoEst, t: now}, now, window)
			}
			// No information at all: no expected future cost.
		}
		// Eq. 6 is |S'|·C_F plus one term >= 0 per victim, and adding a
		// non-negative float never lowers a sum: if the fills alone are
		// not cheaper than redirecting, no victim set makes serving so,
		// and the request redirects without touching the ordered set.
		costServe := float64(len(missing)) * c.cf
		if !(costServe < costRedirect) {
			break
		}
		// The requested chunks must never be evicted; they are exactly
		// the packed-key range [loKey, hiKey] (chunk keys of one video
		// are contiguous), so no per-request skip set is needed.
		loKey := chunk.ID{Video: r.Video, Index: c0}.Key()
		hiKey := chunk.ID{Video: r.Video, Index: c1}.Key()
		victims = c.tree.AppendFirstOutside(c.victimsBuf[:0], needEvict, loKey, hiKey)
		c.victimsBuf = victims
		if len(victims) < needEvict {
			// Cannot make room without evicting the request's own
			// chunks: redirect.
			break
		}
		for _, h := range victims {
			costServe += c.futureCost(c.cachedPopularity(h).iatEntry, now, window)
		}
		serve = costServe < costRedirect
	}

	// The disk-write budget can veto a fill-bearing serve (Section 2's
	// write-vs-read contention); pure hits pass untouched.
	if serve && len(missing) > 0 && c.fillGate != nil && !c.fillGate(len(missing), now) {
		serve = false
		victims = nil
	}

	// Record this arrival in the popularity state (always, including
	// redirects — popularity is built from the full request stream).
	c.observe(v, c0, c1, now)

	if !serve {
		// Cached chunks of S changed popularity; re-key them.
		c.rekey(v, c0, c1)
		return core.Outcome{Decision: core.Redirect}
	}

	// Evict the victims (keep their IAT history; they may return).
	evicted := c.evictedBuf[:0]
	for _, h := range victims {
		evicted = append(evicted, c.evictChunk(h))
	}
	c.evictedBuf = evicted
	// Fill missing chunks and re-key every requested chunk.
	for ci := c0; ci <= c1; ci++ {
		pop := c.popularity(v, ci)
		if pop.dt == unknownDT {
			// First fill of a never-repeated chunk (warmup or
			// whole-request admission): the honest IAT guess for
			// something seen once is the elapsed trace time.
			pop.dt = math.Max(float64(now-c.firstTime), 1)
		}
		c.place(v, chunk.ID{Video: r.Video, Index: ci}, c.treeKey(pop.iatEntry))
	}
	if c.opt.FileLevel {
		// All cached chunks of the video share the updated entry;
		// keep their keys consistent with it.
		c.rekey(v, c0, c1)
	}
	return core.Outcome{
		Decision:      core.Serve,
		FilledChunks:  len(missing),
		FilledBytes:   int64(len(missing)) * c.cfg.ChunkSize,
		EvictedChunks: len(evicted),
		FilledIDs:     missing,
		EvictedIDs:    evicted,
	}
}

// observe applies the Eq. 8 EWMA update for every chunk of the request
// (once per video in the file-level ablation).
func (c *Cache) observe(v *video, c0, c1 uint32, now int64) {
	g := c.opt.Gamma
	if c.opt.FileLevel {
		c0, c1 = 0, 0
	}
	for ci := c0; ci <= c1; ci++ {
		st := &v.chunks[ci]
		switch {
		case !st.seen:
			c.remember(st, iatEntry{dt: unknownDT, t: now})
		case st.dt == unknownDT:
			// Second observation bootstraps dt from the raw gap.
			st.iatEntry = iatEntry{dt: float64(now - st.t), t: now}
		default:
			st.iatEntry = iatEntry{dt: g*float64(now-st.t) + (1-g)*st.dt, t: now}
		}
	}
}

// videoEstimate returns the largest IAT among the video's cached
// chunks, the estimator for unvisited chunks of a partially cached
// video (end of Section 6).
func (c *Cache) videoEstimate(v *video, now int64) (float64, bool) {
	if c.opt.NoVideoEstimate || v.cached == 0 {
		return 0, false
	}
	maxIAT := 0.0
	found := false
	for i, left := 0, v.cached; left > 0; i++ {
		if v.chunks[i].h == 0 {
			continue
		}
		left--
		pop := c.popularity(v, uint32(i))
		if pop.dt == unknownDT {
			continue
		}
		if iat := c.iatAt(pop.iatEntry, now); !found || iat > maxIAT {
			maxIAT = iat
			found = true
		}
	}
	return maxIAT, found
}

// rekey brings the set keys of the cached chunks among [c0, c1] back in
// line with their popularity state after an observation. In the
// file-level ablation every cached chunk of the video shares that state
// and is re-keyed.
func (c *Cache) rekey(v *video, c0, c1 uint32) {
	if v.cached == 0 {
		return
	}
	if c.opt.FileLevel {
		c0, c1 = 0, uint32(len(v.chunks)-1)
	}
	for ci := c0; ci <= c1; ci++ {
		if st := &v.chunks[ci]; st.h != 0 {
			c.tree.Rekey(st.h, c.treeKey(c.popularity(v, ci).iatEntry))
		}
	}
}

// place puts chunk id of v on disk under key, or re-keys it if it is
// there already.
func (c *Cache) place(v *video, id chunk.ID, key float64) {
	st := &v.chunks[id.Index]
	if st.h != 0 {
		c.tree.Rekey(st.h, key)
		return
	}
	st.h = c.tree.Insert(id.Key(), key)
	v.cached++
	if grow := int(st.h) + 1 - len(c.owner); grow > 0 {
		c.owner = append(c.owner, make([]*video, grow)...)
	}
	c.owner[st.h] = v
}

// evictChunk removes the cached chunk h names from disk bookkeeping,
// keeping its IAT history, and returns its ID.
func (c *Cache) evictChunk(h ordtree.Handle) chunk.ID {
	v, id := c.owner[h], chunk.FromKey(c.tree.Remove(h))
	c.owner[h] = nil
	v.chunks[id.Index].h = 0
	v.cached--
	return id
}

// Forget undoes the admission of one chunk whose cache fill failed
// (the HTTP edge server's degrade-to-redirect path): disk bookkeeping
// drops the chunk while its IAT history is kept — a fill failure says
// nothing about the chunk's popularity. No-op when the chunk is not on
// disk.
func (c *Cache) Forget(id chunk.ID) {
	if c.Contains(id) {
		c.evictChunk(c.videos[id.Video].chunks[id.Index].h)
	}
}

// cleanup prunes IAT history of chunks that are not cached and whose
// popularity is too stale to influence any future decision. The
// horizon is a small multiple of the cache age — beyond it, T/IAT is
// negligible.
func (c *Cache) cleanup(now int64) {
	// A full sweep only pays off once stale history can dominate: while
	// the tracked states are within 2x of the cached set (whose entries
	// are never prunable), skip the scan entirely. This caps memory at
	// a small multiple of the disk while eliminating the periodic
	// whole-table iteration on dense, cache-sized workloads.
	if c.tracked <= 2*c.tree.Len() {
		return
	}
	age := c.CacheAge(now)
	if age <= 0 {
		age = float64(now - c.firstTime)
	}
	cutoff := now - int64(8*age) - 1
	for id, v := range c.videos {
		live := false
		for i := range v.chunks {
			st := &v.chunks[i]
			if !st.seen {
				continue
			}
			// A cached chunk keeps its state; in the file-level ablation
			// the video's one shared state stays while any chunk is cached.
			if st.t >= cutoff || st.h != 0 || c.opt.FileLevel && v.cached > 0 {
				live = true
				continue
			}
			*st = chunkState{}
			c.tracked--
		}
		if !live {
			delete(c.videos, id)
		}
	}
}

// CheckInvariants verifies what the decisions rest on. Every item of
// the ordered set is a cached chunk under exactly the key its popularity
// state implies, so eviction order, CacheAge and a Save/Load round trip
// (which recomputes keys) agree; and the two ways from a handle to its
// chunk agree — the set's ID for the handle is the chunk whose state
// stores that handle, in the record the owner table names, which is the
// record videos holds — so an eviction clears the state it means to. It
// walks the whole disk; the conformance suite calls it after every
// request.
func (c *Cache) CheckInvariants() error {
	for _, h := range c.tree.AppendFirstOutside(nil, c.tree.Len(), 1, 0) {
		id, k := chunk.FromKey(c.tree.ID(h)), c.tree.Key(h)
		v := c.videos[id.Video]
		if v == nil || int(id.Index) >= len(v.chunks) || v.chunks[id.Index].h != h {
			return fmt.Errorf("cafe: chunk %s is item %d of the ordered set, but no video record holds that handle for it", id, h)
		}
		if int(h) >= len(c.owner) || c.owner[h] != v {
			return fmt.Errorf("cafe: the owner table does not name the record of video %d for chunk %s (handle %d)", id.Video, id, h)
		}
		if pop := c.popularity(v, id.Index); !pop.seen || k != c.treeKey(pop.iatEntry) {
			return fmt.Errorf("cafe: chunk %s is keyed %v in the ordered set, its state %+v (known: %v) implies %v", id, k, pop.iatEntry, pop.seen, c.treeKey(pop.iatEntry))
		}
	}
	// Each item is a distinct chunk holding its handle; equal counts make
	// that a bijection, so no state holds a handle the set does not know.
	cached := 0
	for id, v := range c.videos {
		n := 0
		for i := range v.chunks {
			if v.chunks[i].h != 0 {
				n++
			}
		}
		if n != v.cached {
			return fmt.Errorf("cafe: video %d holds %d handles and counts %d cached chunks", id, n, v.cached)
		}
		cached += n
	}
	if cached != c.tree.Len() {
		return fmt.Errorf("cafe: video records hold %d handles, the ordered set %d items", cached, c.tree.Len())
	}
	return nil
}
