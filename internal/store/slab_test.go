package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"videocdn/internal/chunk"
)

// testSlabConfig keeps test stores small: 1 KB slots, 8 slots per
// segment, so multi-segment growth is exercised with tiny files.
func testSlabConfig() SlabConfig {
	return SlabConfig{SlotBytes: 1024, SegmentSlots: 8}
}

func newTestSlab(t *testing.T, dir string) *Slab {
	t.Helper()
	s, err := NewSlab(dir, testSlabConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestSlabGrowsSegments(t *testing.T) {
	s := newTestSlab(t, t.TempDir())
	for i := 0; i < 20; i++ { // > 2 segments at 8 slots each
		id := chunk.ID{Video: 1, Index: uint32(i)}
		if err := s.Put(id, []byte(fmt.Sprintf("chunk-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 20 {
		t.Fatalf("Len = %d, want 20", s.Len())
	}
	if got := s.Segments(); got != 3 {
		t.Errorf("Segments = %d, want 3", got)
	}
	for i := 0; i < 20; i++ {
		got, err := s.Get(chunk.ID{Video: 1, Index: uint32(i)}, nil)
		if err != nil || string(got) != fmt.Sprintf("chunk-%d", i) {
			t.Errorf("Get(%d) = %q, %v", i, got, err)
		}
	}
}

func TestSlabSlotReuseAfterDelete(t *testing.T) {
	s := newTestSlab(t, t.TempDir())
	// Fill one segment, delete everything, refill: no new segment.
	for round := 0; round < 3; round++ {
		for i := 0; i < 8; i++ {
			id := chunk.ID{Video: chunk.VideoID(round + 1), Index: uint32(i)}
			if err := s.Put(id, []byte{byte(round), byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 8; i++ {
			if err := s.Delete(chunk.ID{Video: chunk.VideoID(round + 1), Index: uint32(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := s.Segments(); got != 1 {
		t.Errorf("Segments = %d after delete/refill cycles, want 1 (slots must be reused)", got)
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d, want 0", s.Len())
	}
}

func TestSlabRejectsOversizedChunk(t *testing.T) {
	s := newTestSlab(t, t.TempDir())
	err := s.Put(chunk.ID{Video: 1}, make([]byte, 1025))
	if err == nil {
		t.Fatal("oversized Put accepted")
	}
}

func TestSlabRecovery(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestSlab(t, dir)
	ids := []chunk.ID{{Video: 1, Index: 0}, {Video: 1, Index: 1}, {Video: 9, Index: 4}}
	for _, id := range ids {
		if err := s1.Put(id, []byte(id.String())); err != nil {
			t.Fatal(err)
		}
	}
	// Replace one chunk so recovery also proves replace persistence.
	if err := s1.Put(ids[1], []byte("replaced")); err != nil {
		t.Fatal(err)
	}
	// Delete one chunk: it must NOT be resurrected on reopen.
	gone := chunk.ID{Video: 7, Index: 7}
	if err := s1.Put(gone, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if err := s1.Delete(gone); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	s2 := newTestSlab(t, dir)
	if s2.Len() != len(ids) {
		t.Fatalf("recovered Len = %d, want %d", s2.Len(), len(ids))
	}
	if s2.Has(gone) {
		t.Error("deleted chunk resurrected after reopen (phantom chunk)")
	}
	for i, id := range ids {
		want := id.String()
		if i == 1 {
			want = "replaced"
		}
		got, err := s2.Get(id, nil)
		if err != nil || string(got) != want {
			t.Errorf("recovered Get(%s) = %q, %v; want %q", id, got, err, want)
		}
	}
}

// corruptAt opens the segment file and overwrites bytes at off.
func corruptAt(t *testing.T, dir string, seg int, off int64, b []byte) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, fmt.Sprintf("seg-%05d.slab", seg)), os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

// TestSlabCrashRecoveryTornPut simulates a Put interrupted between the
// body write and the header commit: the slot holds body bytes but no
// valid header. Reopen must not index it, Len must be consistent, and
// the slot must return to the freelist (reused by the next Put without
// growing a segment).
func TestSlabCrashRecoveryTornPut(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestSlab(t, dir)
	if err := s1.Put(chunk.ID{Video: 1, Index: 0}, []byte("survivor")); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	// "Crash" mid-Put at slot 1: body bytes land, header never commits
	// (all-zero header region, as in a fresh slot).
	stride := s1.stride
	corruptAt(t, dir, 0, stride+slabHeaderSize, []byte("torn body with no header"))

	s2 := newTestSlab(t, dir)
	if s2.Len() != 1 {
		t.Fatalf("Len after torn put = %d, want 1", s2.Len())
	}
	if !s2.Has(chunk.ID{Video: 1, Index: 0}) {
		t.Error("intact chunk lost")
	}
	// The torn slot must be free again: 8 slots/segment, one occupied,
	// so 7 more Puts fit without growing.
	for i := 1; i <= 7; i++ {
		if err := s2.Put(chunk.ID{Video: 2, Index: uint32(i)}, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s2.Segments(); got != 1 {
		t.Errorf("Segments = %d, want 1 (torn slot must be reclaimed)", got)
	}
}

// TestSlabCrashRecoveryTornHeader simulates a crash mid-header-write:
// magic present but the header CRC does not verify. The slot is
// detected as torn, scrubbed, and reclaimed.
func TestSlabCrashRecoveryTornHeader(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestSlab(t, dir)
	id := chunk.ID{Video: 3, Index: 1}
	if err := s1.Put(id, []byte("will be torn")); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	// Corrupt one byte inside the header's CRC-covered region.
	corruptAt(t, dir, 0, 12, []byte{0xFF})

	s2 := newTestSlab(t, dir)
	if s2.Has(id) {
		t.Error("torn-header slot recovered as a live chunk")
	}
	if s2.Len() != 0 {
		t.Errorf("Len = %d, want 0", s2.Len())
	}
	s2.Close()

	// The scrub must persist: a third open sees a clean free slot.
	s3 := newTestSlab(t, dir)
	defer s3.Close()
	if s3.Len() != 0 {
		t.Errorf("Len on second reopen = %d, want 0", s3.Len())
	}
}

// TestSlabCrashRecoveryTornBody: a valid header whose body bytes do
// not match the body CRC (write reordering across a power loss) is
// detected by the recovery scan's body verification and reclaimed.
func TestSlabCrashRecoveryTornBody(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestSlab(t, dir)
	id := chunk.ID{Video: 4, Index: 2}
	if err := s1.Put(id, []byte("body to be flipped")); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	corruptAt(t, dir, 0, slabHeaderSize+3, []byte{'X'})

	s2 := newTestSlab(t, dir)
	defer s2.Close()
	if s2.Has(id) {
		t.Error("torn-body slot recovered as a live chunk")
	}
	if s2.Len() != 0 {
		t.Errorf("Len = %d, want 0", s2.Len())
	}
}

// TestSlabCrashRecoveryDuplicateKey simulates a crash between a
// replace's new-header commit and the old header's invalidation: two
// valid headers carry the same key. Recovery must keep the higher
// sequence number and free the stale slot.
func TestSlabCrashRecoveryDuplicateKey(t *testing.T) {
	dir := t.TempDir()
	cfg := testSlabConfig()
	s1, err := NewSlab(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	id := chunk.ID{Video: 5, Index: 0}
	if err := s1.Put(id, []byte("old version")); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	// Hand-craft the "new version" in slot 1 with a higher seq, leaving
	// slot 0's header intact — exactly the on-disk state of a replace
	// that crashed before scrubbing the old slot.
	body := []byte("new version")
	var hdr [slabHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], slabMagic)
	binary.LittleEndian.PutUint64(hdr[4:12], id.Key())
	binary.LittleEndian.PutUint64(hdr[12:20], 99) // far above slot 0's seq
	binary.LittleEndian.PutUint32(hdr[20:24], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[24:28], crc32.Checksum(body, castagnoli))
	binary.LittleEndian.PutUint32(hdr[28:32], crc32.Checksum(hdr[0:28], castagnoli))
	corruptAt(t, dir, 0, s1.stride+slabHeaderSize, body)
	corruptAt(t, dir, 0, s1.stride, hdr[:])

	s2, err := NewSlab(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (duplicate keys must collapse)", s2.Len())
	}
	got, err := s2.Get(id, nil)
	if err != nil || string(got) != "new version" {
		t.Fatalf("Get = %q, %v; want the higher-seq version", got, err)
	}
	// The losing slot must be scrubbed and free: fill the segment
	// without growth.
	for i := 0; i < 7; i++ {
		if err := s2.Put(chunk.ID{Video: 6, Index: uint32(i)}, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s2.Segments(); got != 1 {
		t.Errorf("Segments = %d, want 1 (losing slot must be reclaimed)", got)
	}
}

func TestSlabGeometryMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	s, err := NewSlab(dir, SlabConfig{SlotBytes: 1024, SegmentSlots: 8})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := NewSlab(dir, SlabConfig{SlotBytes: 2048, SegmentSlots: 8}); err == nil {
		t.Fatal("geometry mismatch accepted — every offset would be misread")
	}
}

func TestSlabGetConcurrentWithReplaceNeverTears(t *testing.T) {
	s := newTestSlab(t, t.TempDir())
	id := chunk.ID{Video: 1, Index: 0}
	mk := func(b byte) []byte { return bytes.Repeat([]byte{b}, 512) }
	if err := s.Put(id, mk('a')); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Put(id, mk(byte('a'+i%4))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	buf := make([]byte, 0, 1024)
	for i := 0; i < 2000; i++ {
		got, err := s.Get(id, buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 512 {
			t.Fatalf("read %d bytes, want 512", len(got))
		}
		for _, b := range got {
			if b != got[0] {
				t.Fatalf("torn read: mixed %q and %q", got[0], b)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestSlabReplaceWhileGrowing replaces resident chunks while another
// writer makes the slab add segments: the replace path scrubs the old
// slot after dropping the lock, and must not read the segment table
// then. A -race regression test; the values are checked too.
func TestSlabReplaceWhileGrowing(t *testing.T) {
	s := newTestSlab(t, t.TempDir())
	const replacers, fresh = 2, 400 // 8 slots a segment: 50 growths
	var wg sync.WaitGroup
	var stop atomic.Bool
	last := make([]byte, replacers)
	for r := 0; r < replacers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 2 || !stop.Load(); i++ {
				if err := s.Put(chunk.ID{Video: 1, Index: uint32(r)}, []byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
				last[r] = byte(i)
			}
		}(r)
	}
	for i := 0; i < fresh; i++ {
		if err := s.Put(chunk.ID{Video: 2, Index: uint32(i)}, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if s.Len() != replacers+fresh {
		t.Errorf("Len = %d, want %d", s.Len(), replacers+fresh)
	}
	for r := 0; r < replacers; r++ {
		got, err := s.Get(chunk.ID{Video: 1, Index: uint32(r)}, nil)
		if err != nil || len(got) != 1 || got[0] != last[r] {
			t.Errorf("Get(%d) = %v, %v, want [%d]", r, got, err, last[r])
		}
	}
}

func TestSlabGetZeroAllocsIntoReusedBuffer(t *testing.T) {
	s := newTestSlab(t, t.TempDir())
	id := chunk.ID{Video: 1, Index: 0}
	if err := s.Put(id, bytes.Repeat([]byte{7}, 1024)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 1024)
	allocs := testing.AllocsPerRun(100, func() {
		got, err := s.Get(id, buf[:0])
		if err != nil || len(got) != 1024 {
			t.Fatal("bad read")
		}
	})
	if allocs != 0 {
		t.Errorf("Get allocates %v times per op into a reused buffer, want 0", allocs)
	}
}

func TestSlabNotFound(t *testing.T) {
	s := newTestSlab(t, t.TempDir())
	if _, err := s.Get(chunk.ID{Video: 9}, nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get absent = %v, want ErrNotFound", err)
	}
}
