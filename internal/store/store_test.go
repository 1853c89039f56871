package store

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"videocdn/internal/chunk"
)

// stores returns one instance of every Store implementation, so each
// table-driven test below doubles as a conformance suite.
func stores(t *testing.T) map[string]Store {
	t.Helper()
	fs, err := NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	slab, err := NewSlab(t.TempDir(), testSlabConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { slab.Close() })
	// A slab read by pread cannot lend: the one cold store over which the
	// hot tier holds copies of its own.
	cold, err := NewSlab(t.TempDir(), testSlabConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cold.Close() })
	out := map[string]Store{
		"mem": NewMem(), "fs": fs, "slab": slab,
		"tiered":       NewTiered(NewMem(), TieredConfig{HotBytes: 1 << 20, Stripes: 2}),
		"tiered-pread": NewTiered(cold, TieredConfig{HotBytes: 1 << 20, Stripes: 2}),
	}
	if mmapSupported {
		cfg := testSlabConfig()
		cfg.Mmap = true
		ms, err := NewSlab(t.TempDir(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ms.Close() })
		out["slab-mmap"] = ms
		ms2, err := NewSlab(t.TempDir(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ms2.Close() })
		out["tiered-slab"] = NewTiered(ms2, TieredConfig{HotBytes: 1 << 20, Stripes: 2})
	}
	return out
}

func TestPutGetDelete(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			id := chunk.ID{Video: 7, Index: 3}
			data := []byte("hello chunk")
			if s.Has(id) {
				t.Error("fresh store should not have the chunk")
			}
			if err := s.Put(id, data); err != nil {
				t.Fatal(err)
			}
			if !s.Has(id) || s.Len() != 1 {
				t.Errorf("Has/Len wrong after Put")
			}
			got, err := s.Get(id, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Errorf("Get = %q", got)
			}
			if err := s.Delete(id); err != nil {
				t.Fatal(err)
			}
			if s.Has(id) || s.Len() != 0 {
				t.Error("chunk should be gone")
			}
			if _, err := s.Get(id, nil); !errors.Is(err, ErrNotFound) {
				t.Errorf("Get after delete: %v", err)
			}
			// Deleting absent chunk is a no-op.
			if err := s.Delete(id); err != nil {
				t.Errorf("double delete: %v", err)
			}
		})
	}
}

func TestPutReplaces(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			id := chunk.ID{Video: 1, Index: 1}
			if err := s.Put(id, []byte("v1")); err != nil {
				t.Fatal(err)
			}
			if err := s.Put(id, []byte("v2")); err != nil {
				t.Fatal(err)
			}
			got, err := s.Get(id, nil)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "v2" {
				t.Errorf("Get = %q", got)
			}
			if s.Len() != 1 {
				t.Errorf("Len = %d after replace", s.Len())
			}
		})
	}
}

func TestGetAppendsToBuf(t *testing.T) {
	s := NewMem()
	id := chunk.ID{Video: 2}
	if err := s.Put(id, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	buf := []byte("x")
	got, err := s.Get(id, buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "xabc" {
		t.Errorf("Get with buf = %q", got)
	}
}

func TestMemCopiesData(t *testing.T) {
	s := NewMem()
	id := chunk.ID{Video: 3}
	data := []byte("orig")
	if err := s.Put(id, data); err != nil {
		t.Fatal(err)
	}
	data[0] = 'X' // mutate the caller's slice
	got, _ := s.Get(id, nil)
	if string(got) != "orig" {
		t.Error("store must not alias caller memory")
	}
}

func TestFSRecovery(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	ids := []chunk.ID{{Video: 1, Index: 0}, {Video: 1, Index: 1}, {Video: 9, Index: 4}}
	for _, id := range ids {
		if err := s1.Put(id, []byte(id.String())); err != nil {
			t.Fatal(err)
		}
	}
	// Reopen and verify the index was recovered.
	s2, err := NewFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != len(ids) {
		t.Fatalf("recovered Len = %d, want %d", s2.Len(), len(ids))
	}
	for _, id := range ids {
		if !s2.Has(id) {
			t.Errorf("chunk %s not recovered", id)
		}
		got, err := s2.Get(id, nil)
		if err != nil || string(got) != id.String() {
			t.Errorf("recovered Get(%s) = %q, %v", id, got, err)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						id := chunk.ID{Video: chunk.VideoID(g), Index: uint32(i)}
						data := []byte(fmt.Sprintf("%d-%d", g, i))
						if err := s.Put(id, data); err != nil {
							t.Error(err)
							return
						}
						got, err := s.Get(id, nil)
						if err != nil || !bytes.Equal(got, data) {
							t.Errorf("Get(%s) = %q, %v", id, got, err)
							return
						}
						if i%3 == 0 {
							if err := s.Delete(id); err != nil {
								t.Error(err)
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// TestGetReusesBufferCapacity: a buffer with spare capacity must be
// read into in place, not replaced with a fresh allocation — the edge
// serve path cycles one pooled buffer through Get per chunk.
func TestGetReusesBufferCapacity(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			id := chunk.ID{Video: 9, Index: 1}
			payload := bytes.Repeat([]byte("chunk"), 20)
			if err := s.Put(id, payload); err != nil {
				t.Fatal(err)
			}
			buf := append(make([]byte, 0, 4096), "pre"...)
			got, err := s.Get(id, buf)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "pre"+string(payload) {
				t.Errorf("Get appended %q", got)
			}
			if cap(got) != cap(buf) {
				t.Errorf("Get reallocated: cap %d -> %d, want in-place reuse", cap(buf), cap(got))
			}
			// And a too-small buffer still grows correctly.
			small, err := s.Get(id, make([]byte, 0, 8))
			if err != nil || !bytes.Equal(small, payload) {
				t.Errorf("Get with small buf = %q, %v", small, err)
			}
		})
	}
}

// TestReadsZeroAllocs: a Get into a buffer with room and a GetBorrow
// allocate nothing, for every backend that promises it — fs opens a
// file per read and is the one exception. The first read is warm-up:
// it is where the hot tier promotes and the slab opens its descriptor.
func TestReadsZeroAllocs(t *testing.T) {
	for name, s := range stores(t) {
		if name == "fs" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			id := chunk.ID{Video: 3, Index: 2}
			payload := bytes.Repeat([]byte{7}, 1024)
			if err := s.Put(id, payload); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 0, len(payload))
			get := func() {
				if got, err := s.Get(id, buf[:0]); err != nil || len(got) != len(payload) {
					t.Fatalf("Get = %d bytes, %v", len(got), err)
				}
			}
			get()
			if allocs := testing.AllocsPerRun(100, get); allocs != 0 {
				t.Errorf("Get allocates %v times per op into a reused buffer, want 0", allocs)
			}
			bg, ok := s.(BorrowGetter)
			if !ok {
				return
			}
			if br, err := bg.GetBorrow(id); errors.Is(err, ErrNoBorrow) {
				return // a store that cannot lend says so; Get above is its read path
			} else if err == nil {
				br.Release()
			}
			borrow := func() {
				br, err := bg.GetBorrow(id)
				if err != nil || len(br.Data) != len(payload) {
					t.Fatalf("GetBorrow = %d bytes, %v", len(br.Data), err)
				}
				br.Release()
			}
			if allocs := testing.AllocsPerRun(100, borrow); allocs != 0 {
				t.Errorf("GetBorrow allocates %v times per op, want 0", allocs)
			}
		})
	}
}

// TestStoreConformanceMixedOps runs every implementation through the
// same concurrent mix of Put/Get/Has/Delete/Len and then checks the
// quiesced Len against a full enumeration — the invariants the edge
// server leans on, exercised under -race for each backend.
func TestStoreConformanceMixedOps(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for g := 0; g < 6; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 120; i++ {
						id := chunk.ID{Video: chunk.VideoID(i % 24), Index: uint32(g)}
						switch i % 4 {
						case 0, 1:
							if err := s.Put(id, []byte{byte(g), byte(i)}); err != nil {
								t.Error(err)
								return
							}
						case 2:
							if data, err := s.Get(id, nil); err == nil && len(data) != 2 {
								t.Errorf("Get(%s) = %d bytes, want 2", id, len(data))
								return
							}
							s.Has(id)
							s.Len()
						case 3:
							if err := s.Delete(id); err != nil {
								t.Error(err)
								return
							}
							// Idempotent: deleting again must be a no-op.
							if err := s.Delete(id); err != nil {
								t.Errorf("repeat Delete(%s): %v", id, err)
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
			n := 0
			for v := 0; v < 24; v++ {
				for g := 0; g < 6; g++ {
					if s.Has(chunk.ID{Video: chunk.VideoID(v), Index: uint32(g)}) {
						n++
					}
				}
			}
			if s.Len() != n {
				t.Errorf("Len() = %d, enumeration found %d", s.Len(), n)
			}
		})
	}
}

// TestGetNeverAliasesStoreMemory pins the Get contract the borrow work
// leans on: the slice Get returns is the caller's, so mutating it must
// never corrupt what the store serves next (the store does not retain
// the returned slice).
func TestGetNeverAliasesStoreMemory(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			id := chunk.ID{Video: 42, Index: 7}
			payload := []byte("immutable payload")
			if err := s.Put(id, payload); err != nil {
				t.Fatal(err)
			}
			got, err := s.Get(id, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				got[i] = 0xFF // caller scribbles on its slice
			}
			again, err := s.Get(id, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, payload) {
				t.Errorf("store served %q after caller mutated a returned slice; want %q", again, payload)
			}
		})
	}
}

// TestBorrowConformance runs every BorrowGetter through the borrow
// contract: the view matches Get, stays byte-stable across a replace
// and a delete of the chunk (the store must never mutate lent bytes in
// place — the use-after-evict guard), and Release is safe exactly once
// plus on the zero value.
func TestBorrowConformance(t *testing.T) {
	for name, s := range stores(t) {
		bg, ok := s.(BorrowGetter)
		if !ok {
			continue
		}
		t.Run(name, func(t *testing.T) {
			id := chunk.ID{Video: 77, Index: 1}
			payload := bytes.Repeat([]byte("borrow"), 30)
			if err := s.Put(id, payload); err != nil {
				t.Fatal(err)
			}
			br, err := bg.GetBorrow(id)
			if errors.Is(err, ErrNoBorrow) {
				t.Skipf("%s cannot borrow on this platform", name)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(br.Data, payload) {
				t.Fatalf("GetBorrow = %q, want %q", br.Data, payload)
			}
			// Replace and delete while the view is outstanding: the lent
			// bytes must not change underfoot.
			if err := s.Put(id, bytes.Repeat([]byte("fresh!"), 30)); err != nil {
				t.Fatal(err)
			}
			if err := s.Delete(id); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(br.Data, payload) {
				t.Errorf("borrowed view mutated after replace+delete: %q", br.Data)
			}
			br.Release()
			Borrowed{}.Release() // zero value is a no-op

			// Absent chunk: ErrNotFound, not ErrNoBorrow.
			if _, err := bg.GetBorrow(chunk.ID{Video: 78}); !errors.Is(err, ErrNotFound) {
				t.Errorf("GetBorrow(absent) = %v, want ErrNotFound", err)
			}
		})
	}
}

// TestBorrowMatchesGet cross-checks the two read paths byte for byte
// under a churning writer, per store.
func TestBorrowMatchesGet(t *testing.T) {
	for name, s := range stores(t) {
		bg, ok := s.(BorrowGetter)
		if !ok {
			continue
		}
		t.Run(name, func(t *testing.T) {
			id := chunk.ID{Video: 5, Index: 5}
			if err := s.Put(id, []byte("generation-9999")); err != nil {
				t.Fatal(err)
			}
			if br, err := bg.GetBorrow(id); err == nil {
				br.Release()
			} else if errors.Is(err, ErrNoBorrow) {
				t.Skipf("%s cannot borrow on this platform", name)
			}
			var wg sync.WaitGroup
			stop := make(chan struct{})
			defer wg.Wait()
			defer func() { close(stop) }()
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if err := s.Put(id, []byte(fmt.Sprintf("generation-%04d", i%8))); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			for i := 0; i < 300; i++ {
				br, err := bg.GetBorrow(id)
				if err != nil {
					t.Fatal(err)
				}
				// Whatever generation we borrowed, it must be a complete,
				// untorn value some Put wrote.
				if len(br.Data) != len("generation-0000") || string(br.Data[:11]) != "generation-" {
					t.Fatalf("borrowed torn value %q", br.Data)
				}
				cp := append([]byte(nil), br.Data...)
				br.Release()
				if got, err := s.Get(id, nil); err != nil || len(got) != len(cp) {
					t.Fatalf("Get after borrow: %q, %v", got, err)
				}
			}
		})
	}
}

// TestMemStripedConcurrentHotKeys hammers a key set chosen to cover
// every stripe from many goroutines, mixing all four operations plus
// Len, so the striped locking is exercised under -race.
func TestMemStripedConcurrentHotKeys(t *testing.T) {
	s := NewMem()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := chunk.ID{Video: chunk.VideoID(i % 128), Index: uint32(g)}
				switch i % 4 {
				case 0:
					if err := s.Put(id, []byte{byte(g), byte(i)}); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if data, err := s.Get(id, nil); err == nil && len(data) != 2 {
						t.Errorf("Get(%s) = %d bytes, want 2", id, len(data))
						return
					}
				case 2:
					s.Has(id)
					s.Len()
				case 3:
					if err := s.Delete(id); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	// Quiesced Len must agree with a full enumeration via Has.
	n := 0
	for v := 0; v < 128; v++ {
		for g := 0; g < 16; g++ {
			if s.Has(chunk.ID{Video: chunk.VideoID(v), Index: uint32(g)}) {
				n++
			}
		}
	}
	if s.Len() != n {
		t.Errorf("Len() = %d, enumeration found %d", s.Len(), n)
	}
}
