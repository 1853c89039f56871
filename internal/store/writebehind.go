package store

// Write-behind: take disk writes off the client serve path. A miss
// streams origin bytes to the client while the store write completes
// asynchronously on a worker; until it lands, the pending bytes are
// visible through Get/Has exactly as if they were on disk, so the
// layers above (admission preflight, the serve path's store reads)
// cannot observe the deferral.

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"videocdn/internal/chunk"
)

// WriteBehindConfig tunes the async write pipeline.
type WriteBehindConfig struct {
	// Stripes is the number of independent queues and workers, each
	// owning a hash slice of the key space (mirrors the edge server's
	// shard layout). Rounded up to a power of two; 0 means 4.
	Stripes int
	// QueueDepth bounds each stripe's queue. A Put finding its queue
	// full degrades to a synchronous write on the backing store —
	// backpressure, not unbounded buffering. 0 means 64.
	QueueDepth int
	// OnError is called from a worker goroutine when an asynchronous
	// backing write fails, after the pending entry has been dropped. n
	// is the size of the lost write. The edge server uses it to roll
	// back the chunk's admission and reverse its ingress accounting.
	OnError func(id chunk.ID, n int, err error)
}

// wbEntry is one pending write. The data is immutable after enqueue;
// the canceled flag is guarded by the stripe lock.
type wbEntry struct {
	id       chunk.ID
	data     []byte
	canceled bool
}

// wbStripe is one lock domain: a pending map consulted by reads and a
// bounded queue drained by one worker goroutine. One worker per stripe
// means all deferred writes for a given key are serialized.
type wbStripe struct {
	mu      sync.Mutex
	pending map[uint64]*wbEntry
	queue   chan *wbEntry
}

// WriteBehind wraps a Store with an asynchronous write pipeline.
//
// Consistency protocol (per key, under the stripe lock):
//
//   - pending[key] always holds the *newest* write for the key, from
//     Put until the worker has finished processing that entry (the
//     entry stays in the map for the whole backing write, so "no
//     pending entry" implies "no deferred write in flight").
//   - A newer Put supersedes the map pointer; the worker skips any
//     dequeued entry that is no longer current.
//   - Delete marks the entry canceled (reads then ignore it) and
//     deletes from the backing store; a worker that already started
//     the backing write re-deletes afterwards, so either order of the
//     two disk operations converges to "gone".
//   - A Put that finds its queue full falls back to a synchronous
//     backing write — but only once no pending entry exists for the
//     key (it spins briefly otherwise), so a deferred write can never
//     race a synchronous write of the same chunk.
type WriteBehind struct {
	backing Store
	borrow  BorrowGetter  // non-nil iff backing can lend bytes
	section SectionGetter // non-nil iff backing can expose file sections
	cfg     WriteBehindConfig
	stripes []wbStripe
	mask    uint64
	wg      sync.WaitGroup
	closed  atomic.Bool

	syncFallbacks atomic.Int64
	asyncErrors   atomic.Int64
}

// NewWriteBehind wraps backing with cfg.Stripes worker queues.
func NewWriteBehind(backing Store, cfg WriteBehindConfig) *WriteBehind {
	if cfg.Stripes <= 0 {
		cfg.Stripes = 4
	}
	n := 1
	for n < cfg.Stripes {
		n <<= 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	w := &WriteBehind{
		backing: backing,
		cfg:     cfg,
		stripes: make([]wbStripe, n),
		mask:    uint64(n - 1),
	}
	w.borrow, _ = backing.(BorrowGetter)
	w.section, _ = backing.(SectionGetter)
	for i := range w.stripes {
		st := &w.stripes[i]
		st.pending = make(map[uint64]*wbEntry)
		st.queue = make(chan *wbEntry, cfg.QueueDepth)
		w.wg.Add(1)
		go w.worker(st)
	}
	return w
}

// stripe picks the lock domain for a key (same splitmix scatter as
// Mem.stripe, so consecutive chunks of one video spread out).
func (w *WriteBehind) stripe(key uint64) *wbStripe {
	return &w.stripes[(key*0x9E3779B97F4A7C15)>>32&w.mask]
}

// Put implements Store: enqueue the write and return immediately. The
// data is copied (the contract allows the caller to reuse its slice).
func (w *WriteBehind) Put(id chunk.ID, data []byte) error {
	return w.putOwned(id, append([]byte(nil), data...))
}

// PutStream implements StreamPutter. Write-behind's contract is that
// pending bytes are readable the moment the call returns, which
// requires materializing the stream in RAM — but that materialized
// slice IS the pending entry a deferred Put would have copied anyway,
// so streaming through this layer costs one chunk allocation, zero
// extra copies, and keeps every deferral/rollback/read-your-writes
// property intact. The O(stream-buffer) fill bound applies to
// synchronous fills straight into a file-backed store; an async
// pipeline holds chunks in RAM by definition.
func (w *WriteBehind) PutStream(id chunk.ID, r io.Reader, max int64, _ []byte) (int64, error) {
	data, err := readAtMost(r, max)
	if err != nil {
		return 0, err
	}
	return int64(len(data)), w.putOwned(id, data)
}

// putOwned is Put for a slice the pipeline may retain (callers must
// not reuse data afterwards).
func (w *WriteBehind) putOwned(id chunk.ID, data []byte) error {
	if w.closed.Load() {
		return w.backing.Put(id, data)
	}
	key := id.Key()
	st := w.stripe(key)
	e := &wbEntry{id: id, data: data}
	for {
		st.mu.Lock()
		if w.closed.Load() {
			st.mu.Unlock()
			return w.backing.Put(id, data)
		}
		select {
		case st.queue <- e:
			st.pending[key] = e // supersedes any older entry
			st.mu.Unlock()
			return nil
		default:
		}
		// Queue full. Synchronous fallback is only safe when no
		// deferred write for this key is queued or in flight.
		_, busy := st.pending[key]
		st.mu.Unlock()
		if !busy {
			w.syncFallbacks.Add(1)
			return w.backing.Put(id, data)
		}
		time.Sleep(50 * time.Microsecond) // wait for the stripe to drain
	}
}

// worker drains one stripe's queue.
func (w *WriteBehind) worker(st *wbStripe) {
	defer w.wg.Done()
	for e := range st.queue {
		key := e.id.Key()
		st.mu.Lock()
		if st.pending[key] != e {
			// Superseded while queued: a newer entry owns the key.
			st.mu.Unlock()
			continue
		}
		if e.canceled {
			// Deleted while queued: Delete already removed the chunk
			// from the backing store; just retire the entry.
			delete(st.pending, key)
			st.mu.Unlock()
			continue
		}
		st.mu.Unlock()

		err := w.backing.Put(e.id, e.data)

		st.mu.Lock()
		canceled := e.canceled
		st.mu.Unlock()
		if err == nil && canceled {
			// Delete raced the backing write; whichever disk order the
			// two took, deleting again converges on "gone". The entry
			// stays pending across it: Flush must not return, nor a
			// synchronous fallback Put of this key start, while the
			// bytes may still be on disk. (A Delete arriving from here
			// on runs after the write and needs no help.)
			_ = w.backing.Delete(e.id)
		}
		st.mu.Lock()
		if st.pending[key] == e {
			delete(st.pending, key)
		}
		st.mu.Unlock()

		if err != nil {
			w.asyncErrors.Add(1)
			if w.cfg.OnError != nil {
				w.cfg.OnError(e.id, len(e.data), err)
			}
		}
	}
}

// Get implements Store: pending bytes first, then the backing store.
func (w *WriteBehind) Get(id chunk.ID, buf []byte) ([]byte, error) {
	key := id.Key()
	st := w.stripe(key)
	st.mu.Lock()
	if e, ok := st.pending[key]; ok && !e.canceled {
		buf = append(buf, e.data...)
		st.mu.Unlock()
		return buf, nil
	}
	st.mu.Unlock()
	return w.backing.Get(id, buf)
}

// GetBorrow implements BorrowGetter: a pending entry's bytes are
// immutable after enqueue, so they can be lent without a pin (a
// superseding Put installs a new entry rather than touching the old
// one's data, and the GC keeps the borrowed slice alive); otherwise
// the backing store lends them. Read-your-writes across tiers holds by
// construction — a deferred write is readable, borrowed or copied, the
// moment Put returns.
func (w *WriteBehind) GetBorrow(id chunk.ID) (Borrowed, error) {
	key := id.Key()
	st := w.stripe(key)
	st.mu.Lock()
	if e, ok := st.pending[key]; ok && !e.canceled {
		st.mu.Unlock()
		return Borrowed{Data: e.data}, nil
	}
	st.mu.Unlock()
	if w.borrow == nil {
		return Borrowed{}, ErrNoBorrow
	}
	return w.borrow.GetBorrow(id)
}

// GetSection implements SectionGetter: a pending entry's bytes live
// in RAM, not in a file, so a deferred write reports ErrNoSection
// (the borrow path already serves pending bytes zero-copy); committed
// chunks delegate to the backing store's section capability.
func (w *WriteBehind) GetSection(id chunk.ID) (Section, error) {
	key := id.Key()
	st := w.stripe(key)
	st.mu.Lock()
	e, ok := st.pending[key]
	live := ok && !e.canceled
	st.mu.Unlock()
	if live {
		return Section{}, ErrNoSection
	}
	if w.section == nil {
		return Section{}, ErrNoSection
	}
	return w.section.GetSection(id)
}

// Has implements Store.
func (w *WriteBehind) Has(id chunk.ID) bool {
	key := id.Key()
	st := w.stripe(key)
	st.mu.Lock()
	e, ok := st.pending[key]
	live := ok && !e.canceled
	st.mu.Unlock()
	return live || w.backing.Has(id)
}

// Delete implements Store: cancel any pending write, then delete from
// the backing store.
func (w *WriteBehind) Delete(id chunk.ID) error {
	key := id.Key()
	st := w.stripe(key)
	st.mu.Lock()
	if e, ok := st.pending[key]; ok {
		e.canceled = true // the worker retires the map entry
	}
	st.mu.Unlock()
	return w.backing.Delete(id)
}

// Len implements Store: the size of the union of live pending keys and
// backing keys. Pending sets are queue-bounded, so the walk is cheap.
// A deferred write that lands while the walk is under way would be
// counted twice or not at all, so the walk is repeated (a few times at
// most: under a steady stream of writes no instant's count exists)
// until the backing store's own count stood still across it.
func (w *WriteBehind) Len() int {
	n := 0
	for attempt := 0; attempt < 4; attempt++ {
		backed := w.backing.Len()
		n = backed
		for i := range w.stripes {
			st := &w.stripes[i]
			st.mu.Lock()
			for _, e := range st.pending {
				if !e.canceled && !w.backing.Has(e.id) {
					n++
				}
			}
			st.mu.Unlock()
		}
		if w.backing.Len() == backed {
			break
		}
	}
	return n
}

// Pending reports how many deferred writes are queued or in flight.
func (w *WriteBehind) Pending() int {
	n := 0
	for i := range w.stripes {
		st := &w.stripes[i]
		st.mu.Lock()
		n += len(st.pending)
		st.mu.Unlock()
	}
	return n
}

// SyncFallbacks reports how many Puts degraded to synchronous backing
// writes because their stripe's queue was full (backpressure events).
func (w *WriteBehind) SyncFallbacks() int64 { return w.syncFallbacks.Load() }

// AsyncErrors reports how many asynchronous backing writes failed.
func (w *WriteBehind) AsyncErrors() int64 { return w.asyncErrors.Load() }

// Flush blocks until every deferred write has been committed (or
// failed) on the backing store.
func (w *WriteBehind) Flush() {
	for w.Pending() > 0 {
		time.Sleep(200 * time.Microsecond)
	}
}

// Close drains the pipeline and stops the workers. Further Puts write
// synchronously to the backing store; double Close is an error.
func (w *WriteBehind) Close() error {
	if !w.closed.CompareAndSwap(false, true) {
		return fmt.Errorf("store: write-behind already closed")
	}
	w.Flush()
	for i := range w.stripes {
		st := &w.stripes[i]
		st.mu.Lock()
		close(st.queue)
		st.mu.Unlock()
	}
	w.wg.Wait()
	return nil
}

var (
	_ Store         = (*WriteBehind)(nil)
	_ BorrowGetter  = (*WriteBehind)(nil)
	_ SectionGetter = (*WriteBehind)(nil)
	_ StreamPutter  = (*WriteBehind)(nil)
)
