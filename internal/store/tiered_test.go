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

// countingStore wraps a Store and counts reads, so tests can observe
// which tier actually served.
type countingStore struct {
	Store
	gets atomic.Int64
}

func (c *countingStore) Get(id chunk.ID, buf []byte) ([]byte, error) {
	c.gets.Add(1)
	return c.Store.Get(id, buf)
}

func tieredPayload(i int) []byte {
	return bytes.Repeat([]byte{byte(i)}, 256)
}

func TestTieredPromoteOnRead(t *testing.T) {
	cold := &countingStore{Store: NewMem()}
	tr := NewTiered(cold, TieredConfig{HotBytes: 1 << 20, Stripes: 1})
	id := chunk.ID{Video: 1, Index: 0}
	if err := tr.Put(id, tieredPayload(1)); err != nil {
		t.Fatal(err)
	}
	if got := tr.Stats().HotChunks; got != 0 {
		t.Fatalf("write admitted to hot tier: %d chunks", got)
	}
	// First read: cold hit, promotes.
	if _, err := tr.Get(id, nil); err != nil {
		t.Fatal(err)
	}
	// Second read: must be served from RAM without touching cold.
	before := cold.gets.Load()
	got, err := tr.Get(id, nil)
	if err != nil || !bytes.Equal(got, tieredPayload(1)) {
		t.Fatalf("hot Get = %q, %v", got, err)
	}
	if cold.gets.Load() != before {
		t.Error("hot hit consulted the cold store")
	}
	st := tr.Stats()
	if st.HotHits != 1 || st.ColdHits != 1 || st.Promotions != 1 || st.HotChunks != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.HotBytesServed != 256 || st.ColdBytesServed != 256 {
		t.Errorf("byte accounting = %+v", st)
	}
}

func TestTieredBudgetBound(t *testing.T) {
	budget := int64(4 * (256 + hotEntryOverhead))
	tr := NewTiered(NewMem(), TieredConfig{HotBytes: budget, Stripes: 1})
	for i := 0; i < 32; i++ {
		id := chunk.ID{Video: 1, Index: uint32(i)}
		if err := tr.Put(id, tieredPayload(i)); err != nil {
			t.Fatal(err)
		}
		// Read repeatedly so everything qualifies for admission.
		for r := 0; r < 3; r++ {
			if _, err := tr.Get(id, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := tr.Stats()
	if st.HotBytes > budget {
		t.Errorf("hot tier holds %d bytes, budget %d", st.HotBytes, budget)
	}
	if st.HotChunks == 0 {
		t.Error("nothing resident despite repeated reads")
	}
	if st.Evictions == 0 {
		t.Error("no evictions despite working set 8x the budget")
	}
}

func TestTieredOneHitWondersDoNotEvict(t *testing.T) {
	tr := NewTiered(NewMem(), TieredConfig{HotBytes: 4 * (256 + hotEntryOverhead), Stripes: 1})
	// Establish four hot residents with repeated reads.
	for i := 0; i < 4; i++ {
		id := chunk.ID{Video: 1, Index: uint32(i)}
		if err := tr.Put(id, tieredPayload(i)); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 5; r++ {
			if _, err := tr.Get(id, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := tr.Stats(); st.HotChunks != 4 {
		t.Fatalf("warmup residency = %d, want 4", st.HotChunks)
	}
	// A long scan of cold, never-repeated chunks must not displace
	// them. The doorkeeper is a sketch, so skip the few scan keys that
	// hash onto a resident's counter — a collision legitimately looks
	// like a repeat visitor.
	hotSlots := map[uint32]bool{}
	for i := 0; i < 4; i++ {
		hotSlots[sketchIdx((chunk.ID{Video: 1, Index: uint32(i)}).Key())] = true
	}
	for i := 100; i < 400; i++ {
		id := chunk.ID{Video: 2, Index: uint32(i)}
		if hotSlots[sketchIdx(id.Key())] {
			continue
		}
		if err := tr.Put(id, tieredPayload(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Get(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	resident := map[uint64]bool{}
	tr.ForEachHot(func(id chunk.ID, _ []byte) bool {
		resident[id.Key()] = true
		return true
	})
	for i := 0; i < 4; i++ {
		if !resident[(chunk.ID{Video: 1, Index: uint32(i)}).Key()] {
			t.Errorf("hot chunk %d displaced by a one-hit-wonder scan", i)
		}
	}
}

func TestTieredHotSubsetOfCold(t *testing.T) {
	cold := NewMem()
	tr := NewTiered(cold, TieredConfig{HotBytes: 1 << 20, Stripes: 4})
	for i := 0; i < 64; i++ {
		id := chunk.ID{Video: chunk.VideoID(i % 8), Index: uint32(i)}
		if err := tr.Put(id, tieredPayload(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Get(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Delete half through the tier; the hot copies must go too.
	for i := 0; i < 64; i += 2 {
		if err := tr.Delete(chunk.ID{Video: chunk.VideoID(i % 8), Index: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	tr.ForEachHot(func(id chunk.ID, data []byte) bool {
		if !cold.Has(id) {
			t.Errorf("hot-resident %s missing from cold store (hot ⊄ cold)", id)
		}
		want, err := cold.Get(id, nil)
		if err != nil || !bytes.Equal(want, data) {
			t.Errorf("hot copy of %s diverges from cold: %v", id, err)
		}
		return true
	})
	if tr.Len() != cold.Len() {
		t.Errorf("Len %d != cold %d", tr.Len(), cold.Len())
	}
}

func TestTieredPutRefreshesHotCopy(t *testing.T) {
	tr := NewTiered(NewMem(), TieredConfig{HotBytes: 1 << 20, Stripes: 1})
	id := chunk.ID{Video: 3, Index: 1}
	if err := tr.Put(id, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Get(id, nil); err != nil { // promote v1
		t.Fatal(err)
	}
	br, err := tr.GetBorrow(id) // hot view of v1
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Put(id, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Get(id, nil)
	if err != nil || string(got) != "v2" {
		t.Fatalf("Get after replace = %q, %v (stale hot copy?)", got, err)
	}
	if string(br.Data) != "v1" {
		t.Errorf("outstanding borrow mutated by replace: %q", br.Data)
	}
	br.Release()
}

func TestTieredPassThroughWhenDisabled(t *testing.T) {
	tr := NewTiered(NewMem(), TieredConfig{HotBytes: 0, Stripes: 2})
	id := chunk.ID{Video: 9}
	if err := tr.Put(id, []byte("data")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := tr.Get(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	if st := tr.Stats(); st.HotChunks != 0 || st.Promotions != 0 || st.HotHits != 0 {
		t.Errorf("disabled tier promoted: %+v", st)
	}
}

func TestTieredMissCounts(t *testing.T) {
	tr := NewTiered(NewMem(), TieredConfig{HotBytes: 1 << 20, Stripes: 1})
	if _, err := tr.Get(chunk.ID{Video: 1}, nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(absent) = %v", err)
	}
	if _, err := tr.GetBorrow(chunk.ID{Video: 1}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetBorrow(absent) = %v", err)
	}
	if st := tr.Stats(); st.Misses != 2 {
		t.Errorf("misses = %d, want 2", st.Misses)
	}
}

func TestTieredConcurrentChurn(t *testing.T) {
	cold := NewMem()
	tr := NewTiered(cold, TieredConfig{HotBytes: 32 * (256 + hotEntryOverhead), Stripes: 4})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				id := chunk.ID{Video: chunk.VideoID(i % 48), Index: uint32(g % 4)}
				switch i % 5 {
				case 0, 1:
					if err := tr.Put(id, []byte(fmt.Sprintf("%d-%d", id.Video, id.Index))); err != nil {
						t.Error(err)
						return
					}
				case 2, 3:
					if data, err := tr.Get(id, nil); err == nil {
						want := fmt.Sprintf("%d-%d", id.Video, id.Index)
						if string(data) != want {
							t.Errorf("Get(%s) = %q, want %q", id, data, want)
							return
						}
					}
					if br, err := tr.GetBorrow(id); err == nil {
						br.Release()
					}
				case 4:
					if err := tr.Delete(id); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	// Quiesced: hot ⊆ cold with byte-identical content.
	tr.ForEachHot(func(id chunk.ID, data []byte) bool {
		want, err := cold.Get(id, nil)
		if err != nil {
			t.Errorf("hot-resident %s not in cold: %v", id, err)
			return true
		}
		if !bytes.Equal(want, data) {
			t.Errorf("hot copy of %s diverges from cold", id)
		}
		return true
	})
	if st := tr.Stats(); st.HotBytes < 0 {
		t.Errorf("negative hot byte accounting: %+v", st)
	}
}

// slotPins reports how many outstanding borrows pin id's slab slot.
func slotPins(s *Slab, id chunk.ID) int32 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e := s.index[id.Key()]
	return s.segments[e.loc.seg].pins[e.loc.slot].Load()
}

// TestTieredLendingColdStaysEmpty pins the tier's one rule from the
// lending side: over a cold store that lends its bytes, repeated
// borrows are the cold store's own loans and nothing is ever promoted —
// the chunk is in RAM once, not twice.
func TestTieredLendingColdStaysEmpty(t *testing.T) {
	colds := map[string]Store{"mem": NewMem()}
	if mmapSupported {
		cfg := testSlabConfig()
		cfg.Mmap = true
		sl, err := NewSlab(t.TempDir(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer sl.Close()
		colds["slab-mmap"] = sl
	}
	for name, cold := range colds {
		t.Run(name, func(t *testing.T) {
			tr := NewTiered(cold, TieredConfig{HotBytes: 1 << 20, Stripes: 2})
			const chunks, rounds = 6, 5
			for i := 0; i < chunks; i++ {
				if err := tr.Put(chunk.ID{Video: 1, Index: uint32(i)}, tieredPayload(i)); err != nil {
					t.Fatal(err)
				}
			}
			for r := 0; r < rounds; r++ {
				for i := 0; i < chunks; i++ {
					id := chunk.ID{Video: 1, Index: uint32(i)}
					br, err := tr.GetBorrow(id)
					if err != nil || !bytes.Equal(br.Data, tieredPayload(i)) {
						t.Fatalf("GetBorrow(%s) = %d bytes, %v", id, len(br.Data), err)
					}
					// The loan is the cold store's, not a copy of it.
					switch c := cold.(type) {
					case *Slab:
						if got := slotPins(c, id); got != 1 {
							t.Fatalf("%s: %d pins while borrowed through the tier, want 1", id, got)
						}
						br.Release()
						if got := slotPins(c, id); got != 0 {
							t.Fatalf("%s: %d pins after Release, want 0", id, got)
						}
					case *Mem:
						direct, _ := c.GetBorrow(id)
						if &br.Data[0] != &direct.Data[0] {
							t.Fatalf("%s: tier lent a copy of the cold store's bytes", id)
						}
						br.Release()
					}
				}
			}
			st := tr.Stats()
			if st.HotBytes != 0 || st.HotChunks != 0 || st.Promotions != 0 || st.HotHits != 0 {
				t.Errorf("tier filled over a lending cold store: %+v", st)
			}
			if st.ColdHits != chunks*rounds || st.ColdBytesServed != chunks*rounds*256 {
				t.Errorf("cold loans miscounted: %+v", st)
			}
			tr.ForEachHot(func(id chunk.ID, _ []byte) bool {
				t.Errorf("%s is hot-resident over a lending cold store", id)
				return true
			})
		})
	}
}

// TestTieredLentBorrowTakesNoTierLock: with every stripe locked, a
// borrow the cold store can satisfy must still return.
func TestTieredLentBorrowTakesNoTierLock(t *testing.T) {
	tr := NewTiered(NewMem(), TieredConfig{HotBytes: 1 << 20, Stripes: 4})
	id := chunk.ID{Video: 7, Index: 1}
	if err := tr.Put(id, []byte("lent")); err != nil {
		t.Fatal(err)
	}
	for i := range tr.stripes {
		tr.stripes[i].mu.Lock()
		defer tr.stripes[i].mu.Unlock()
	}
	done := make(chan error, 1)
	go func() {
		br, err := tr.GetBorrow(id)
		br.Release()
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("GetBorrow over a lending cold store waits on a tier stripe lock")
	}
}

// TestTieredNoBorrowFallsBackToHotMap pins the other side of the rule:
// a slab that answers ErrNoBorrow (opened without mmap) leaves the
// borrow to the hot map, a hot miss leaves it to the caller's copy
// path, and that copy is what promotes.
func TestTieredNoBorrowFallsBackToHotMap(t *testing.T) {
	cold := newTestSlab(t, t.TempDir())
	tr := NewTiered(cold, TieredConfig{HotBytes: 1 << 20, Stripes: 1})
	id := chunk.ID{Video: 2, Index: 5}
	if err := tr.Put(id, tieredPayload(5)); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.GetBorrow(id); !errors.Is(err, ErrNoBorrow) {
		t.Fatalf("GetBorrow before any copy = %v, want ErrNoBorrow", err)
	}
	if st := tr.Stats(); st.Promotions != 0 || st.HotChunks != 0 {
		t.Fatalf("a failed borrow promoted: %+v", st)
	}
	if got, err := tr.Get(id, nil); err != nil || !bytes.Equal(got, tieredPayload(5)) {
		t.Fatalf("Get = %d bytes, %v", len(got), err)
	}
	br, err := tr.GetBorrow(id)
	if err != nil || !bytes.Equal(br.Data, tieredPayload(5)) {
		t.Fatalf("GetBorrow after the copy = %d bytes, %v", len(br.Data), err)
	}
	br.Release()
	if st := tr.Stats(); st.Promotions != 1 || st.HotChunks != 1 || st.HotHits != 1 || st.ColdHits != 1 {
		t.Errorf("stats = %+v, want one promotion by Get and one hot borrow", st)
	}
	if err := tr.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.GetBorrow(id); !errors.Is(err, ErrNotFound) {
		t.Errorf("GetBorrow after Delete = %v, want ErrNotFound", err)
	}
}
