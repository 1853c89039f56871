package store

// The paper's framing is recursive: every cache tier is a line of
// defense that absorbs traffic so the next, more expensive tier sees
// less. Tiered applies the idea inside one edge server — a bounded RAM
// hot tier over a cold Store whose reads cost a copy (slab by pread,
// fs), so the hottest chunks are served from memory and never touch
// the disk line at all.
//
// One rule decides what the tier holds: promotion rides on a copy the
// read was making anyway; a zero-copy read stays zero-copy. A cold
// store that lends its bytes (Mem, the mmap slab) already serves from
// RAM — under the slab the page cache is that line of defense — and a
// hot copy would hold every popular chunk twice and buy nothing, so
// GetBorrow passes such a loan through untouched and only Get, the
// copy path, promotes. Over a lending store the tier stays empty.
//
// Residency invariant: hot ⊆ cold. The hot tier only ever holds copies
// of chunks the cold store also holds, promoted on a copying read;
// writes go through to cold first. Eviction from the hot tier therefore
// just drops the copy (demotion to cold-only residency), never loses
// bytes, and Len/Has can answer from the cold store alone.
//
// Admission is frequency-weighted, not naive recency: a per-stripe
// doorkeeper sketch (fixed array of 8-bit counters, halved
// periodically) counts read attempts per key, and once the stripe is
// at budget a candidate is admitted only if it has been seen before
// AND is at least as hot as every resident it would evict — one-hit
// wonders cannot churn hot bytes (the byte-miss-ratio admission idea
// of the beyond-Belady line of work, reduced to a cheap sketch).

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"videocdn/internal/chunk"
)

// TieredConfig tunes the RAM hot tier.
type TieredConfig struct {
	// HotBytes is the total RAM budget for hot chunk bytes across all
	// stripes (accounted as payload bytes plus a small fixed per-entry
	// overhead). <= 0 means no chunk is ever promoted — the store is a
	// pure pass-through to cold.
	HotBytes int64
	// Stripes is the number of independent lock domains, rounded up to
	// a power of two; 0 means 8. The edge server passes its shard count
	// so tier locks mirror the rest of its lock layout.
	Stripes int
}

// TierStats is a point-in-time snapshot of the tier counters.
type TierStats struct {
	HotHits         int64 `json:"hot_hits"`
	ColdHits        int64 `json:"cold_hits"`
	Misses          int64 `json:"misses"`
	HotBytesServed  int64 `json:"hot_bytes_served"`
	ColdBytesServed int64 `json:"cold_bytes_served"`
	Promotions      int64 `json:"promotions"`
	Evictions       int64 `json:"evictions"`
	HotBytes        int64 `json:"hot_bytes"`  // current residency
	HotChunks       int   `json:"hot_chunks"` // current residency
}

// hotEntry is one RAM-resident chunk: an intrusive LRU node so
// promotion costs a single allocation.
type hotEntry struct {
	key        uint64
	data       []byte // replaced wholesale on update, never mutated in place
	prev, next *hotEntry
}

// hotEntryOverhead approximates the fixed per-entry cost (entry struct,
// map cell, slice header) charged against the byte budget, so a tier
// full of tiny chunks cannot blow past its budget on bookkeeping.
const hotEntryOverhead = 96

// tierSketchBits sizes the per-stripe doorkeeper sketch (2^10 8-bit
// counters = 1 KB per stripe).
const tierSketchBits = 10

// tierSketchAgeEvery halves the sketch after this many touches, so
// yesterday's popularity decays instead of pinning the tier forever.
const tierSketchAgeEvery = 8192

// tierStripe is one lock domain of the hot tier.
type tierStripe struct {
	mu      sync.Mutex
	entries map[uint64]*hotEntry
	head    *hotEntry // MRU
	tail    *hotEntry // LRU
	bytes   int64
	budget  int64
	// epoch is bumped by every Put/Delete of a key in this stripe. A
	// promotion records the epoch before its cold read and aborts if it
	// changed, so a read racing a delete can never resurrect the chunk
	// (hot ⊆ cold survives the race), and a read racing a replace can
	// never promote the superseded bytes.
	epoch   uint64
	freq    [1 << tierSketchBits]uint8
	touches uint32
}

// Tiered is a bounded RAM hot tier over a cold Store.
//
// Concurrency: per-stripe mutexes guard the hot maps; the cold store
// provides its own synchronization. A borrowed hot view needs no pin —
// entries' data slices are immutable once installed, so eviction just
// drops the reference and the GC keeps outstanding views alive.
type Tiered struct {
	cold       Store
	coldBorrow BorrowGetter // non-nil iff cold can lend bytes
	stripes    []tierStripe
	mask       uint64

	hotHits    atomic.Int64
	coldHits   atomic.Int64
	misses     atomic.Int64
	hotServed  atomic.Int64
	coldServed atomic.Int64
	promotions atomic.Int64
	evictions  atomic.Int64
}

// NewTiered layers a RAM hot tier over cold.
func NewTiered(cold Store, cfg TieredConfig) *Tiered {
	if cfg.Stripes <= 0 {
		cfg.Stripes = 8
	}
	n := 1
	for n < cfg.Stripes {
		n <<= 1
	}
	t := &Tiered{
		cold:    cold,
		stripes: make([]tierStripe, n),
		mask:    uint64(n - 1),
	}
	t.coldBorrow, _ = cold.(BorrowGetter)
	per := cfg.HotBytes / int64(n)
	for i := range t.stripes {
		st := &t.stripes[i]
		st.entries = make(map[uint64]*hotEntry)
		st.budget = per
	}
	return t
}

// Cold returns the wrapped cold store.
func (t *Tiered) Cold() Store { return t.cold }

// stripe picks the lock domain for a key (the shared splitmix scatter,
// so consecutive chunks of one video spread across stripes).
func (t *Tiered) stripe(key uint64) *tierStripe {
	return &t.stripes[(key*0x9E3779B97F4A7C15)>>32&t.mask]
}

// sketchIdx maps a key into the stripe's doorkeeper sketch.
func sketchIdx(key uint64) uint32 {
	return uint32((key * 0x9E3779B97F4A7C15) >> (64 - tierSketchBits))
}

// touch records one read attempt for key in the stripe's sketch and
// returns the key's new count. Called with st.mu held.
func (st *tierStripe) touch(key uint64) uint8 {
	st.touches++
	if st.touches >= tierSketchAgeEvery {
		st.touches = 0
		for i := range st.freq {
			st.freq[i] >>= 1
		}
	}
	i := sketchIdx(key)
	if st.freq[i] < 255 {
		st.freq[i]++
	}
	return st.freq[i]
}

// lookupHot returns the hot entry's data (and touches LRU + sketch) or
// nil, and the stripe epoch a promotion after a miss must still find.
// Safe to use the returned slice without the lock: data slices are
// never mutated in place.
func (st *tierStripe) lookupHot(key uint64) (data []byte, epoch uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.touch(key)
	if e, ok := st.entries[key]; ok {
		st.moveToFront(e)
		data = e.data
	}
	return data, st.epoch
}

// moveToFront makes e the MRU node. Called with st.mu held.
func (st *tierStripe) moveToFront(e *hotEntry) {
	if st.head == e {
		return
	}
	st.unlink(e)
	e.next = st.head
	if st.head != nil {
		st.head.prev = e
	}
	st.head = e
	if st.tail == nil {
		st.tail = e
	}
}

// unlink removes e from the LRU list. Called with st.mu held.
func (st *tierStripe) unlink(e *hotEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	if st.head == e {
		st.head = e.next
	}
	if st.tail == e {
		st.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// removeLocked drops key from the hot tier. Called with st.mu held.
func (st *tierStripe) removeLocked(key uint64) bool {
	e, ok := st.entries[key]
	if !ok {
		return false
	}
	delete(st.entries, key)
	st.unlink(e)
	st.bytes -= int64(len(e.data)) + hotEntryOverhead
	e.data = nil
	return true
}

// Get implements Store, the copy path: hot tier first, then cold, and
// the bytes just copied out of cold are what promotion admits. It is
// the only read that promotes.
func (t *Tiered) Get(id chunk.ID, buf []byte) ([]byte, error) {
	key := id.Key()
	st := t.stripe(key)
	data, ep := st.lookupHot(key)
	if data != nil {
		t.hotHits.Add(1)
		t.hotServed.Add(int64(len(data)))
		return append(buf, data...), nil
	}
	off := len(buf)
	buf, err := t.cold.Get(id, buf)
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			t.misses.Add(1)
		}
		return nil, err
	}
	data = buf[off:]
	t.coldHits.Add(1)
	t.coldServed.Add(int64(len(data)))
	t.maybePromote(st, key, data, ep)
	return buf, nil
}

// GetBorrow implements BorrowGetter. A cold store that can lend the
// chunk is asked first and its loan is returned as it came — no tier
// lock, no sketch touch, no promotion: those bytes are in RAM already.
// The hot map answers only what cold cannot lend (ErrNoBorrow, or no
// borrow capability at all); a hot hit lends the entry's immutable
// data slice (no pin needed), a hot miss leaves the caller its copy
// path, Get, which is where promotion happens.
func (t *Tiered) GetBorrow(id chunk.ID) (Borrowed, error) {
	if t.coldBorrow != nil {
		br, err := t.coldBorrow.GetBorrow(id)
		if err == nil {
			t.coldHits.Add(1)
			t.coldServed.Add(int64(len(br.Data)))
			return br, nil
		}
		if !errors.Is(err, ErrNoBorrow) {
			if errors.Is(err, ErrNotFound) {
				t.misses.Add(1)
			}
			return Borrowed{}, err
		}
	}
	key := id.Key()
	if data, _ := t.stripe(key).lookupHot(key); data != nil {
		t.hotHits.Add(1)
		t.hotServed.Add(int64(len(data)))
		return Borrowed{Data: data}, nil
	}
	return Borrowed{}, ErrNoBorrow
}

// maybePromote admits key into the hot tier if the doorkeeper says it
// has earned residency; Get is its only caller. data is copied on
// admission (the caller's slice is never retained). ep is the stripe
// epoch observed before the cold read; a mismatch means a Put/Delete
// intervened and the bytes in hand may be stale — promotion is
// abandoned.
func (t *Tiered) maybePromote(st *tierStripe, key uint64, data []byte, ep uint64) {
	need := int64(len(data)) + hotEntryOverhead
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.epoch != ep || st.budget <= 0 || need > st.budget {
		return
	}
	if _, ok := st.entries[key]; ok {
		return // a concurrent read already promoted it
	}
	if st.bytes+need > st.budget {
		// Full: the candidate must be a repeat visitor at least as hot
		// as every resident it displaces. Walk the victim set first so
		// an inadmissible candidate evicts nothing.
		f := st.freq[sketchIdx(key)]
		if f < 2 {
			return
		}
		freed := int64(0)
		for v := st.tail; v != nil && st.bytes-freed+need > st.budget; v = v.prev {
			if st.freq[sketchIdx(v.key)] > f {
				return
			}
			freed += int64(len(v.data)) + hotEntryOverhead
		}
		if st.bytes-freed+need > st.budget {
			return // not enough evictable bytes (shouldn't happen: list holds all bytes)
		}
		for st.tail != nil && st.bytes+need > st.budget {
			t.evictions.Add(1)
			st.removeLocked(st.tail.key)
		}
	}
	e := &hotEntry{key: key, data: append([]byte(nil), data...)}
	st.entries[key] = e
	st.bytes += need
	st.moveToFront(e)
	t.promotions.Add(1)
}

// Put implements Store: write-through. Cold is written first (a failed
// cold write leaves the tier untouched); a hot-resident chunk is then
// updated in place in the tier — with a fresh slice, never by mutating
// the old one, which outstanding borrows may still reference.
func (t *Tiered) Put(id chunk.ID, data []byte) error {
	if err := t.cold.Put(id, data); err != nil {
		return err
	}
	key := id.Key()
	st := t.stripe(key)
	st.mu.Lock()
	st.epoch++
	if e, ok := st.entries[key]; ok {
		st.bytes += int64(len(data)) - int64(len(e.data))
		e.data = append([]byte(nil), data...)
		st.moveToFront(e)
		for st.tail != nil && st.bytes > st.budget && st.tail != e {
			t.evictions.Add(1)
			st.removeLocked(st.tail.key)
		}
		if st.bytes > st.budget {
			// The updated chunk alone no longer fits its stripe budget.
			t.evictions.Add(1)
			st.removeLocked(key)
		}
	}
	st.mu.Unlock()
	return nil
}

// PutStream implements StreamPutter: stream to the cold store when it
// can take a stream, otherwise materialize and write through. Either
// way the bytes pass this layer without being retained, so any stale
// hot copy must be demoted (the stream is gone; there is nothing to
// update it with). The bookkeeping — epoch bump, demotion counted as
// an eviction — is identical in both branches so tier counters never
// depend on which backend sits below.
func (t *Tiered) PutStream(id chunk.ID, r io.Reader, max int64, scratch []byte) (int64, error) {
	var n int64
	if sp, ok := t.cold.(StreamPutter); ok {
		var err error
		n, err = sp.PutStream(id, r, max, scratch)
		if err != nil {
			return n, err
		}
	} else {
		data, err := readAtMost(r, max)
		if err != nil {
			return 0, err
		}
		if err := t.cold.Put(id, data); err != nil {
			return 0, err
		}
		n = int64(len(data))
	}
	key := id.Key()
	st := t.stripe(key)
	st.mu.Lock()
	st.epoch++
	if st.removeLocked(key) {
		t.evictions.Add(1)
	}
	st.mu.Unlock()
	return n, nil
}

// Delete implements Store: drop the hot copy first, then the cold
// bytes, so no moment exists where the tier serves a chunk the cold
// store has already forgotten.
func (t *Tiered) Delete(id chunk.ID) error {
	key := id.Key()
	st := t.stripe(key)
	st.mu.Lock()
	st.epoch++
	st.removeLocked(key)
	st.mu.Unlock()
	return t.cold.Delete(id)
}

// Has implements Store. hot ⊆ cold, so cold alone is authoritative;
// the hot map is consulted first only to skip the cold store's lock.
func (t *Tiered) Has(id chunk.ID) bool {
	key := id.Key()
	st := t.stripe(key)
	st.mu.Lock()
	_, hot := st.entries[key]
	st.mu.Unlock()
	return hot || t.cold.Has(id)
}

// Len implements Store: hot ⊆ cold means cold's count is the store's.
func (t *Tiered) Len() int { return t.cold.Len() }

// Stats snapshots the tier counters and current hot residency.
func (t *Tiered) Stats() TierStats {
	s := TierStats{
		HotHits:         t.hotHits.Load(),
		ColdHits:        t.coldHits.Load(),
		Misses:          t.misses.Load(),
		HotBytesServed:  t.hotServed.Load(),
		ColdBytesServed: t.coldServed.Load(),
		Promotions:      t.promotions.Load(),
		Evictions:       t.evictions.Load(),
	}
	for i := range t.stripes {
		st := &t.stripes[i]
		st.mu.Lock()
		s.HotBytes += st.bytes
		s.HotChunks += len(st.entries)
		st.mu.Unlock()
	}
	return s
}

// ForEachHot visits every hot-resident chunk until fn returns false.
// The data slice is only valid during the call; fn must not call back
// into the tier (the stripe lock is held). Used by the model-based
// oracle to check the two-tier coherence invariant.
func (t *Tiered) ForEachHot(fn func(id chunk.ID, data []byte) bool) {
	for i := range t.stripes {
		st := &t.stripes[i]
		st.mu.Lock()
		for key, e := range st.entries {
			if !fn(chunk.FromKey(key), e.data) {
				st.mu.Unlock()
				return
			}
		}
		st.mu.Unlock()
	}
}

var (
	_ Store        = (*Tiered)(nil)
	_ BorrowGetter = (*Tiered)(nil)
	_ StreamPutter = (*Tiered)(nil)
	_ fmt.Stringer = (*Tiered)(nil)
)

// String describes the tier layout (logs, -v test output).
func (t *Tiered) String() string {
	total := int64(0)
	for i := range t.stripes {
		total += t.stripes[i].budget
	}
	return fmt.Sprintf("tiered(hot=%dB/%d stripes over %T)", total, len(t.stripes), t.cold)
}
