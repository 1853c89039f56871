package store

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"videocdn/internal/chunk"
)

// blockingStore wraps Mem and lets a test hold every Put until
// released, exposing the write-behind window. entered (buffered) gets
// a token whenever a Put reaches the backing store, so tests can
// sequence deterministically against the worker.
type blockingStore struct {
	*Mem
	gate        chan struct{} // each Put receives once before writing
	entered     chan struct{}
	deleteDelay time.Duration // a slow disk: Delete takes this long
}

func (s *blockingStore) Delete(id chunk.ID) error {
	time.Sleep(s.deleteDelay)
	return s.Mem.Delete(id)
}

func newBlockingStore() *blockingStore {
	return &blockingStore{Mem: NewMem(), gate: make(chan struct{}), entered: make(chan struct{}, 64)}
}

func (s *blockingStore) Put(id chunk.ID, data []byte) error {
	s.entered <- struct{}{}
	<-s.gate
	return s.Mem.Put(id, data)
}

// failingStore rejects Puts for a chosen chunk.
type failingStore struct {
	*Mem
	failKey uint64
}

func (s *failingStore) Put(id chunk.ID, data []byte) error {
	if id.Key() == s.failKey {
		return fmt.Errorf("injected write failure for %s", id)
	}
	return s.Mem.Put(id, data)
}

func TestWriteBehindReadYourWrites(t *testing.T) {
	backing := newBlockingStore()
	w := NewWriteBehind(backing, WriteBehindConfig{Stripes: 2, QueueDepth: 8})
	defer func() { close(backing.gate); w.Close() }()

	id := chunk.ID{Video: 1, Index: 0}
	data := []byte("written behind")
	if err := w.Put(id, data); err != nil {
		t.Fatal(err)
	}
	// The backing write is gated shut, yet the chunk must already be
	// fully visible through the wrapper.
	if !w.Has(id) {
		t.Error("Has = false while write is pending")
	}
	got, err := w.Get(id, nil)
	if err != nil || !bytes.Equal(got, data) {
		t.Errorf("Get = %q, %v", got, err)
	}
	if w.Len() != 1 {
		t.Errorf("Len = %d, want 1", w.Len())
	}
	if backing.Mem.Has(id) {
		t.Error("backing store wrote synchronously")
	}

	backing.gate <- struct{}{} // release the worker
	w.Flush()
	if !backing.Mem.Has(id) {
		t.Error("flush did not commit the pending write")
	}
	if w.Pending() != 0 {
		t.Errorf("Pending = %d after flush", w.Pending())
	}
	got, err = w.Get(id, nil)
	if err != nil || !bytes.Equal(got, data) {
		t.Errorf("Get after flush = %q, %v", got, err)
	}
}

func TestWriteBehindBackpressureFallsBackSync(t *testing.T) {
	backing := newBlockingStore()
	w := NewWriteBehind(backing, WriteBehindConfig{Stripes: 1, QueueDepth: 2})
	defer func() { close(backing.gate); w.Close() }()

	// Park the worker inside a backing write, then fill both queue
	// slots behind it.
	if err := w.Put(chunk.ID{Video: 1, Index: 0}, []byte{0}); err != nil {
		t.Fatal(err)
	}
	<-backing.entered
	for i := 1; i <= 2; i++ {
		if err := w.Put(chunk.ID{Video: 1, Index: uint32(i)}, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Queue is now full and the key is fresh: this Put must degrade to
	// a synchronous backing write (it, too, blocks on the gate, so run
	// it from a goroutine and feed four tokens: sync + the three
	// deferred writes).
	done := make(chan error, 1)
	go func() { done <- w.Put(chunk.ID{Video: 9, Index: 9}, []byte("sync")) }()
	<-backing.entered // the fallback write reached the backing store
	for i := 0; i < 4; i++ {
		backing.gate <- struct{}{}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if w.SyncFallbacks() == 0 {
		t.Error("full queue must be counted as a sync fallback")
	}
	w.Flush()
	if got, err := w.Get(chunk.ID{Video: 9, Index: 9}, nil); err != nil || string(got) != "sync" {
		t.Errorf("Get after fallback = %q, %v", got, err)
	}
	if w.Len() != 4 {
		t.Errorf("Len = %d, want 4", w.Len())
	}
}

func TestWriteBehindDeleteCancelsPending(t *testing.T) {
	backing := newBlockingStore()
	w := NewWriteBehind(backing, WriteBehindConfig{Stripes: 1, QueueDepth: 8})
	defer func() { close(backing.gate); w.Close() }()

	hold := chunk.ID{Video: 1, Index: 0} // worker will block on this one
	victim := chunk.ID{Video: 1, Index: 1}
	if err := w.Put(hold, []byte("hold")); err != nil {
		t.Fatal(err)
	}
	<-backing.entered // worker is parked inside hold's backing write
	if err := w.Put(victim, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	// victim is queued behind hold; delete it before the worker gets
	// there.
	if err := w.Delete(victim); err != nil {
		t.Fatal(err)
	}
	if w.Has(victim) {
		t.Error("deleted chunk still visible")
	}
	if _, err := w.Get(victim, nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get deleted = %v, want ErrNotFound", err)
	}
	backing.gate <- struct{}{} // let hold commit; victim is skipped unentered
	w.Flush()
	if backing.Mem.Has(victim) {
		t.Error("canceled write reached the backing store")
	}
	if !backing.Mem.Has(hold) {
		t.Error("unrelated write lost")
	}
}

func TestWriteBehindDeleteRacingInFlightWriteConverges(t *testing.T) {
	backing := newBlockingStore()
	// Slow enough that a Flush which stops waiting before the worker's
	// re-delete is done returns with the bytes still there.
	backing.deleteDelay = 20 * time.Millisecond
	w := NewWriteBehind(backing, WriteBehindConfig{Stripes: 1, QueueDepth: 8})
	defer func() { close(backing.gate); w.Close() }()

	id := chunk.ID{Video: 2, Index: 0}
	if err := w.Put(id, []byte("bytes")); err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to block inside the backing Put, then
	// delete: the write completes afterwards, and the worker must
	// notice the cancellation and re-delete.
	<-backing.entered
	if err := w.Delete(id); err != nil {
		t.Fatal(err)
	}
	backing.gate <- struct{}{}
	w.Flush()
	if backing.Mem.Has(id) || w.Has(id) {
		t.Error("chunk survived a delete that raced its deferred write")
	}
}

func TestWriteBehindReplaceSupersedesQueuedWrite(t *testing.T) {
	backing := newBlockingStore()
	w := NewWriteBehind(backing, WriteBehindConfig{Stripes: 1, QueueDepth: 8})
	defer func() { close(backing.gate); w.Close() }()

	hold := chunk.ID{Video: 1, Index: 0}
	id := chunk.ID{Video: 1, Index: 1}
	if err := w.Put(hold, []byte("hold")); err != nil {
		t.Fatal(err)
	}
	<-backing.entered // worker is parked inside hold's backing write
	if err := w.Put(id, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := w.Put(id, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, _ := w.Get(id, nil); string(got) != "v2" {
		t.Errorf("Get = %q, want v2 (newest pending wins)", got)
	}
	// Release hold, then v2. The superseded v1 is skipped without ever
	// reaching the backing store, so it consumes no gate token.
	for i := 0; i < 2; i++ {
		backing.gate <- struct{}{}
	}
	w.Flush()
	got, err := w.Get(id, nil)
	if err != nil || string(got) != "v2" {
		t.Errorf("Get after flush = %q, %v", got, err)
	}
	if w.Len() != 2 {
		t.Errorf("Len = %d, want 2", w.Len())
	}
}

func TestWriteBehindErrorCallbackAndRollback(t *testing.T) {
	backing := &failingStore{Mem: NewMem(), failKey: (chunk.ID{Video: 5, Index: 5}).Key()}
	var failed atomic.Int64
	var failedID chunk.ID
	var failedN int
	var mu sync.Mutex
	w := NewWriteBehind(backing, WriteBehindConfig{
		Stripes: 2, QueueDepth: 8,
		OnError: func(id chunk.ID, n int, err error) {
			mu.Lock()
			failedID = id
			failedN = n
			mu.Unlock()
			failed.Add(1)
		},
	})
	defer w.Close()

	ok := chunk.ID{Video: 5, Index: 4}
	bad := chunk.ID{Video: 5, Index: 5}
	if err := w.Put(ok, []byte("fine")); err != nil {
		t.Fatal(err)
	}
	if err := w.Put(bad, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	if failed.Load() != 1 {
		t.Fatalf("OnError fired %d times, want 1", failed.Load())
	}
	mu.Lock()
	got, gotN := failedID, failedN
	mu.Unlock()
	if got != bad {
		t.Errorf("OnError id = %s, want %s", got, bad)
	}
	if gotN != len("doomed") {
		t.Errorf("OnError n = %d, want %d", gotN, len("doomed"))
	}
	if w.AsyncErrors() != 1 {
		t.Errorf("AsyncErrors = %d, want 1", w.AsyncErrors())
	}
	// The failed chunk must have vanished from the union view.
	if w.Has(bad) {
		t.Error("failed write still visible")
	}
	if !w.Has(ok) {
		t.Error("successful write lost")
	}
}

func TestWriteBehindCloseDrainsAndFallsBackSync(t *testing.T) {
	backing := NewMem()
	w := NewWriteBehind(backing, WriteBehindConfig{Stripes: 4, QueueDepth: 16})
	for i := 0; i < 64; i++ {
		if err := w.Put(chunk.ID{Video: chunk.VideoID(i % 8), Index: uint32(i)}, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if backing.Len() != 64 {
		t.Errorf("backing holds %d chunks after Close, want 64", backing.Len())
	}
	// Post-close Puts must still work (synchronously).
	id := chunk.ID{Video: 99, Index: 0}
	if err := w.Put(id, []byte("late")); err != nil {
		t.Fatal(err)
	}
	if !backing.Has(id) {
		t.Error("post-close Put did not reach the backing store")
	}
	if err := w.Close(); err == nil {
		t.Error("double Close must error")
	}
}

func TestWriteBehindConcurrentMixedOps(t *testing.T) {
	w := NewWriteBehind(NewMem(), WriteBehindConfig{Stripes: 4, QueueDepth: 8})
	defer w.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := chunk.ID{Video: chunk.VideoID(i % 32), Index: uint32(g)}
				switch i % 4 {
				case 0, 1:
					if err := w.Put(id, []byte{byte(g), byte(i)}); err != nil {
						t.Error(err)
						return
					}
				case 2:
					if data, err := w.Get(id, nil); err == nil && len(data) != 2 {
						t.Errorf("Get(%s) = %d bytes, want 2", id, len(data))
						return
					}
					w.Has(id)
				case 3:
					if err := w.Delete(id); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	w.Flush()
	// Quiesced Len must agree with enumeration via Has.
	n := 0
	for v := 0; v < 32; v++ {
		for g := 0; g < 8; g++ {
			if w.Has(chunk.ID{Video: chunk.VideoID(v), Index: uint32(g)}) {
				n++
			}
		}
	}
	if w.Len() != n {
		t.Errorf("Len = %d, enumeration found %d", w.Len(), n)
	}
}
