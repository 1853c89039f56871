package store

// Conformance suite for the two streaming contracts PR 9 adds:
// StreamPutter (fills pumped through a fixed buffer) and SectionGetter
// (chunks exposed as file sections for the kernel serve path). Every
// store in stores() is run against every case; stores that do not
// implement a capability are exercised for graceful degradation
// (ErrNoSection) rather than skipped silently.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"

	"videocdn/internal/chunk"
)

// readSection preads a section's bytes without touching the file's
// position.
func readSection(t *testing.T, sec Section) []byte {
	t.Helper()
	buf := make([]byte, sec.Size())
	if _, err := sec.File().ReadAt(buf, sec.Offset()); err != nil {
		t.Fatalf("section ReadAt: %v", err)
	}
	return buf
}

// errAfterReader yields n bytes of data then fails.
type errAfterReader struct {
	data []byte
	err  error
}

func (r *errAfterReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

func TestPutStreamMatchesPut(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			sp, ok := s.(StreamPutter)
			if !ok {
				t.Skipf("%s does not stream", name)
			}
			id := chunk.ID{Video: 11, Index: 2}
			data := bytes.Repeat([]byte("stream me "), 40) // spans several scratch reads
			n, err := sp.PutStream(id, bytes.NewReader(data), int64(len(data)), make([]byte, 64))
			if err != nil {
				t.Fatal(err)
			}
			if n != int64(len(data)) {
				t.Fatalf("PutStream length = %d, want %d", n, len(data))
			}
			got, err := s.Get(id, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Errorf("Get after PutStream diverges (%d vs %d bytes)", len(got), len(data))
			}
			// nil scratch must work too (implementations pick a default).
			if _, err := sp.PutStream(id, bytes.NewReader(data), int64(len(data)), nil); err != nil {
				t.Fatalf("nil scratch: %v", err)
			}
		})
	}
}

func TestPutStreamOversizeAndReaderError(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			sp, ok := s.(StreamPutter)
			if !ok {
				t.Skipf("%s does not stream", name)
			}
			id := chunk.ID{Video: 12, Index: 5}
			prev := []byte("previous value survives every failed stream")
			if err := s.Put(id, prev); err != nil {
				t.Fatal(err)
			}

			// One byte over max → ErrTooLarge, prior value intact.
			over := bytes.Repeat([]byte("x"), 101)
			if _, err := sp.PutStream(id, bytes.NewReader(over), 100, make([]byte, 32)); !errors.Is(err, ErrTooLarge) {
				t.Fatalf("oversize stream: got %v, want ErrTooLarge", err)
			}
			if got, err := s.Get(id, nil); err != nil || !bytes.Equal(got, prev) {
				t.Fatalf("value clobbered by failed oversize stream: %q, %v", got, err)
			}

			// Exactly max is accepted.
			exact := bytes.Repeat([]byte("y"), 100)
			if _, err := sp.PutStream(id, bytes.NewReader(exact), 100, make([]byte, 32)); err != nil {
				t.Fatalf("exact-max stream: %v", err)
			}
			if err := s.Put(id, prev); err != nil {
				t.Fatal(err)
			}

			// A reader that dies mid-stream: its error comes back (not
			// wrapped into a store error) and the prior value survives.
			boom := errors.New("mid-body truncation")
			_, err := sp.PutStream(id, &errAfterReader{data: []byte("partial"), err: boom}, 100, make([]byte, 4))
			if !errors.Is(err, boom) {
				t.Fatalf("reader error: got %v, want %v", err, boom)
			}
			if got, gerr := s.Get(id, nil); gerr != nil || !bytes.Equal(got, prev) {
				t.Fatalf("value clobbered by truncated stream: %q, %v", got, gerr)
			}
		})
	}
}

func TestSectionMatchesGet(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			id := chunk.ID{Video: 21, Index: 0}
			data := bytes.Repeat([]byte("section bytes "), 16)
			if err := s.Put(id, data); err != nil {
				t.Fatal(err)
			}
			sg, ok := s.(SectionGetter)
			if !ok {
				t.Skipf("%s has no section capability", name)
			}
			sec, err := sg.GetSection(id)
			if errors.Is(err, ErrNoSection) {
				// Legitimate degradation (RAM-backed chain); the serve
				// path falls through to borrow/copy.
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer sec.Release()
			if sec.Size() != int64(len(data)) {
				t.Fatalf("section size = %d, want %d", sec.Size(), len(data))
			}
			if got := readSection(t, sec); !bytes.Equal(got, data) {
				t.Errorf("section bytes diverge from Put data")
			}
			got, err := s.Get(id, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, readSection(t, sec)) {
				t.Errorf("section bytes diverge from Get")
			}
			// Absent chunk → ErrNotFound, not a phantom section.
			if _, err := sg.GetSection(chunk.ID{Video: 21, Index: 99}); !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrNoSection) {
				t.Errorf("absent chunk: %v", err)
			}
		})
	}
}

// TestSectionConcurrent hammers GetSection + pread against writes of
// other keys under -race: sections of live chunks must stay readable
// and byte-stable while the store churns around them.
func TestSectionConcurrent(t *testing.T) {
	for name, s := range stores(t) {
		sg, ok := s.(SectionGetter)
		if !ok {
			continue
		}
		t.Run(name, func(t *testing.T) {
			stable := chunk.ID{Video: 31, Index: 7}
			want := bytes.Repeat([]byte("pin me "), 10)
			if err := s.Put(stable, want); err != nil {
				t.Fatal(err)
			}
			if _, err := sg.GetSection(stable); errors.Is(err, ErrNoSection) {
				t.Skipf("%s yields no sections", name)
			}
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 200; i++ {
						sec, err := sg.GetSection(stable)
						if err != nil {
							t.Errorf("GetSection: %v", err)
							return
						}
						buf := make([]byte, sec.Size())
						_, rerr := sec.File().ReadAt(buf, sec.Offset())
						sec.Release()
						if rerr != nil {
							t.Errorf("ReadAt: %v", rerr)
							return
						}
						if !bytes.Equal(buf, want) {
							t.Errorf("section bytes changed under concurrency")
							return
						}
					}
				}(g)
			}
			// Churn neighboring keys so slots/files recycle around the
			// pinned chunk.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					id := chunk.ID{Video: 32, Index: uint32(i % 8)}
					_ = s.Put(id, []byte(strings.Repeat("c", 1+i%64)))
					_ = s.Delete(id)
				}
			}()
			wg.Wait()
		})
	}
}

// TestSectionOutlivesDelete pins the crash-safety half of the section
// contract: bytes already handed to the kernel must stay valid when
// the chunk is deleted mid-send (FS: the open fd keeps the inode;
// slab: the pin quarantines the slot until Release).
func TestSectionOutlivesDelete(t *testing.T) {
	for name, s := range stores(t) {
		sg, ok := s.(SectionGetter)
		if !ok {
			continue
		}
		t.Run(name, func(t *testing.T) {
			id := chunk.ID{Video: 41, Index: 3}
			want := bytes.Repeat([]byte("outlive "), 12)
			if err := s.Put(id, want); err != nil {
				t.Fatal(err)
			}
			sec, err := sg.GetSection(id)
			if errors.Is(err, ErrNoSection) {
				t.Skipf("%s yields no sections", name)
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Delete(id); err != nil {
				t.Fatal(err)
			}
			// The deleted chunk's lent bytes must still read back intact.
			if got := readSection(t, sec); !bytes.Equal(got, want) {
				t.Errorf("section bytes corrupted by racing Delete")
			}
			// Slab only: while the section is out, the slot must not be
			// recycled by new writes (quarantine) — overwrite pressure on
			// other keys must leave the lent bytes alone.
			for i := 0; i < 32; i++ {
				_ = s.Put(chunk.ID{Video: 42, Index: uint32(i)}, []byte(fmt.Sprintf("churn %d", i)))
			}
			if got := readSection(t, sec); !bytes.Equal(got, want) {
				t.Errorf("section bytes recycled while lent")
			}
			sec.Release()
			if s.Has(id) {
				t.Errorf("chunk still present after Delete")
			}
		})
	}
}

// TestSectionFilesArePrivate pins the half of the contract sendfile(2)
// leans on: two sections out at once — of one chunk, or of neighbours
// in one backing file — never share a file offset, so seeking one
// cannot move the other.
func TestSectionFilesArePrivate(t *testing.T) {
	for name, s := range stores(t) {
		sg, ok := s.(SectionGetter)
		if !ok {
			continue
		}
		t.Run(name, func(t *testing.T) {
			a, b := chunk.ID{Video: 51, Index: 0}, chunk.ID{Video: 51, Index: 1}
			for _, id := range []chunk.ID{a, b} {
				if err := s.Put(id, bytes.Repeat([]byte("private "), 16)); err != nil {
					t.Fatal(err)
				}
			}
			var secs []Section
			for _, id := range []chunk.ID{a, a, b} {
				sec, err := sg.GetSection(id)
				if errors.Is(err, ErrNoSection) {
					t.Skipf("%s yields no sections", name)
				}
				if err != nil {
					t.Fatal(err)
				}
				defer sec.Release()
				secs = append(secs, sec)
			}
			for i, sec := range secs {
				if _, err := sec.File().Seek(sec.Offset()+int64(i)+1, io.SeekStart); err != nil {
					t.Fatal(err)
				}
			}
			for i, sec := range secs {
				pos, err := sec.File().Seek(0, io.SeekCurrent)
				if err != nil {
					t.Fatal(err)
				}
				if want := sec.Offset() + int64(i) + 1; pos != want {
					t.Errorf("section %d: offset %d after the others seeked, want %d (a shared description)", i, pos, want)
				}
			}
		})
	}
}

// openFDsUnder counts the process's descriptors open on files under
// dir (other tests' files, closed whenever a finalizer gets to them,
// stay out of the count); ok is false where /proc does not list them
// (anything but Linux).
func openFDsUnder(dir string) (n int, ok bool) {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0, false
	}
	for _, e := range ents {
		if target, err := os.Readlink("/proc/self/fd/" + e.Name()); err == nil && strings.HasPrefix(target, dir+"/") {
			n++
		}
	}
	return n, true
}

// manySegmentSlab fills a slab of 4-slot segments in dir with 128
// chunks — 32 segments — and returns it with the ids and what each
// chunk holds.
func manySegmentSlab(t *testing.T, dir string, mmap bool) (*Slab, []chunk.ID, func(chunk.ID) []byte) {
	t.Helper()
	s, err := NewSlab(dir, SlabConfig{SlotBytes: 256, SegmentSlots: 4, Mmap: mmap})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	payload := func(id chunk.ID) []byte {
		return bytes.Repeat([]byte{byte(id.Index), byte(id.Index >> 3), 0xA5}, 64)
	}
	ids := make([]chunk.ID, 128)
	for i := range ids {
		ids[i] = chunk.ID{Video: 61, Index: uint32(i)}
		if err := s.Put(ids[i], payload(ids[i])); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Segments(); got != 32 {
		t.Fatalf("Segments = %d, want 32", got)
	}
	return s, ids, payload
}

// TestSlabSectionDescriptorsBounded is the fd ledger of the section
// pool: however many sections come and go, and however many are out at
// once, what stays open afterwards is the segments plus at most
// slabIdleFiles idle descriptions, and Close gives every one back.
func TestSlabSectionDescriptorsBounded(t *testing.T) {
	dir := t.TempDir()
	if _, ok := openFDsUnder(dir); !ok {
		t.Skip("no /proc/self/fd to count descriptors in")
	}
	s, ids, payload := manySegmentSlab(t, dir, false)
	round := func(id chunk.ID) error {
		sec, err := s.GetSection(id)
		if err != nil {
			return err
		}
		defer sec.Release()
		buf := make([]byte, sec.Size())
		if _, err := sec.File().ReadAt(buf, sec.Offset()); err != nil {
			return err
		}
		if !bytes.Equal(buf, payload(id)) {
			return fmt.Errorf("section of %s holds foreign bytes", id)
		}
		return nil
	}
	bound := s.Segments() + slabIdleFiles
	check := func(when string) {
		t.Helper()
		if n, _ := openFDsUnder(dir); n > bound {
			t.Fatalf("%s: %d descriptors open, want at most %d (%d segments + %d idle)",
				when, n, bound, s.Segments(), slabIdleFiles)
		}
	}

	for i := 0; i < 1000; i++ {
		if err := round(ids[(i*37)%len(ids)]); err != nil {
			t.Fatal(err)
		}
	}
	check("after 1000 sequential rounds")

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := round(ids[(g*17+i*5)%len(ids)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	check("after 8 x 200 concurrent rounds")

	// More out at once than the pool keeps: the surplus is closed as it
	// comes back, the pool ends exactly full.
	held := make([]Section, slabIdleFiles+8)
	for i := range held {
		sec, err := s.GetSection(ids[i%len(ids)])
		if err != nil {
			t.Fatal(err)
		}
		held[i] = sec
	}
	for _, sec := range held {
		sec.Release()
	}
	if n, _ := openFDsUnder(dir); n != bound {
		t.Errorf("after %d sections out at once: %d descriptors open, want exactly %d", len(held), n, bound)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n, _ := openFDsUnder(dir); n != 0 {
		t.Errorf("after Close: %d descriptors still open", n)
	}
}

// TestSectionSurvivesClose: a section taken before Close reads its
// exact bytes after it, and its Release closes the description the
// closed store no longer pools.
func TestSectionSurvivesClose(t *testing.T) {
	for _, mmap := range []bool{false, mmapSupported} {
		t.Run(fmt.Sprintf("mmap=%v", mmap), func(t *testing.T) {
			dir := t.TempDir()
			s, ids, payload := manySegmentSlab(t, dir, mmap)
			id := ids[77]
			sec, err := s.GetSection(id)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if got := readSection(t, sec); !bytes.Equal(got, payload(id)) {
				t.Errorf("section bytes changed across Close")
			}
			sec.Release()
			if n, _ := openFDsUnder(dir); n != 0 {
				t.Errorf("after Close and Release: %d descriptors still open", n)
			}
		})
	}
}

// TestSlabSectionOpenFailureDropsPin: when no file description can be
// had, GetSection reports it — not ErrNotFound, the chunk is there —
// and leaves no pin behind, so the slot is recycled on delete as if the
// section had never been asked for.
func TestSlabSectionOpenFailureDropsPin(t *testing.T) {
	s := newTestSlab(t, t.TempDir())
	id := chunk.ID{Video: 71, Index: 0}
	want := []byte("still served by Get")
	if err := s.Put(id, want); err != nil {
		t.Fatal(err)
	}
	s.openFile = func(string) (*os.File, error) { return nil, syscall.EMFILE }
	if _, err := s.GetSection(id); !errors.Is(err, syscall.EMFILE) || errors.Is(err, ErrNotFound) {
		t.Fatalf("GetSection with no descriptors left = %v, want EMFILE", err)
	}
	if got, err := s.Get(id, nil); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Get after the failed section = %q, %v", got, err)
	}
	free := len(s.free)
	if err := s.Delete(id); err != nil {
		t.Fatal(err)
	}
	if len(s.free) != free+1 {
		t.Errorf("freelist %d -> %d across Delete: the failed GetSection left its slot pinned", free, len(s.free))
	}
	s.openFile = os.Open
	if err := s.Put(id, want); err != nil {
		t.Fatal(err)
	}
	sec, err := s.GetSection(id)
	if err != nil {
		t.Fatalf("GetSection once descriptors are back: %v", err)
	}
	if got := readSection(t, sec); !bytes.Equal(got, want) {
		t.Errorf("section = %q, want %q", got, want)
	}
	sec.Release()
}

// TestSlabSectionZeroAllocs: in steady state a slab section is a pool
// checkout and a pin — an os.Open per call would allocate, so a
// regression to open-per-section fails here, not in a benchmark.
func TestSlabSectionZeroAllocs(t *testing.T) {
	s := newTestSlab(t, t.TempDir())
	id := chunk.ID{Video: 81, Index: 0}
	if err := s.Put(id, bytes.Repeat([]byte{9}, 512)); err != nil {
		t.Fatal(err)
	}
	round := func() {
		sec, err := s.GetSection(id)
		if err != nil || sec.Size() != 512 {
			t.Fatalf("GetSection = %d bytes, %v", sec.Size(), err)
		}
		sec.Release()
	}
	round() // opens the segment's first description
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Errorf("GetSection+Release allocates %v times per op, want 0", allocs)
	}
}
