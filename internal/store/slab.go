package store

// The slab store is the paper's Section 4 disk layout taken literally:
// "divide the disk into small fixed-size chunks" so that allocation
// and deallocation never fragment. Instead of one file per chunk (FS),
// the disk is a handful of large segment files carved into fixed-size
// slots; an in-memory index maps chunk key → slot and a freelist hands
// out empty slots, so every Put/Get/Delete is O(1): a single pwrite or
// pread at a computed offset, with no open/stat/rename/dentry work on
// the hot path.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"videocdn/internal/chunk"
)

// Slot header layout (32 bytes, little-endian):
//
//	[0:4]   magic "SLB1"
//	[4:12]  chunk key (video<<32 | index)
//	[12:20] sequence number (monotonic per store; replace/crash arbiter)
//	[20:24] body length in bytes (<= SlotBytes)
//	[24:28] CRC-32C of the body
//	[28:32] CRC-32C of bytes [0:28]
//
// A Put writes the body first, then commits the header in a second
// pwrite. A slot whose header is missing, torn (headerCRC mismatch) or
// whose body fails its CRC is garbage by definition and returns to the
// freelist on recovery — a crashed mid-write Put can never produce a
// phantom chunk. Delete and replace zero the superseded header's magic
// on disk, and if a crash lands between a replace's new-header commit
// and the old header's invalidation, recovery sees two valid headers
// for one key and keeps the higher sequence number.
const (
	slabMagic      = 0x31424C53 // "SLB1"
	slabHeaderSize = 32
	slabAlign      = 4096 // slot stride alignment (device-block I/O)
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SlabConfig tunes a Slab store. The zero value is usable: 2 MB slots,
// 256 slots per segment, lazily grown segment files.
type SlabConfig struct {
	// SlotBytes is the fixed slot payload capacity — the chunk size K.
	// Defaults to chunk.DefaultSize (2 MB). Puts larger than this fail.
	SlotBytes int64
	// SegmentSlots is how many slots each segment file holds. Defaults
	// to 256 (512 MB segments at 2 MB slots).
	SegmentSlots int
	// Prealloc extends each new segment file to its full size up front
	// (one Truncate), so steady-state writes never extend the file.
	// Without it segments are sparse and grow as slots are written.
	Prealloc bool
	// Mmap maps every segment read-only (MAP_SHARED), enabling the
	// zero-copy GetBorrow path: a cache hit serves straight from the
	// page cache instead of pread+copy. Segment files are extended to
	// their full size on creation/open (sparse holes read as zeros) so
	// the fixed-length mapping can never fault. Ignored on platforms
	// without mmap support, where GetBorrow reports ErrNoBorrow.
	Mmap bool
}

func (c *SlabConfig) withDefaults() SlabConfig {
	out := *c
	if out.SlotBytes == 0 {
		out.SlotBytes = chunk.DefaultSize
	}
	if out.SegmentSlots == 0 {
		out.SegmentSlots = 256
	}
	return out
}

// slabLoc addresses one slot: segment number and slot index within it.
type slabLoc struct {
	seg  int32
	slot int32
}

// slabEntry is the index value for a present chunk.
type slabEntry struct {
	loc slabLoc
	len int32  // body bytes
	gen uint32 // slot generation at admission (torn-read detection)
}

// slabSegment is one segment file plus the per-slot generation
// counters that let lock-free readers detect slot reuse. With Mmap on
// it also carries the read-only mapping.
type slabSegment struct {
	s    *Slab
	num  int32
	f    *os.File
	data []byte   // read-only MAP_SHARED view of the whole segment (nil without Mmap)
	gens []uint32 // bumped under the store lock whenever the slot is freed
	// pins counts outstanding lent views per slot — GetBorrow slices
	// (mmap) and GetSection file regions alike; quar flags a freed slot
	// that still had borrowers — it joins the freelist only when the
	// last borrow is released (whoever wins the CAS on the flag owns
	// the hand-back).
	pins []atomic.Int32
	quar []atomic.Bool
}

// releaseBorrow implements borrowReleaser: unpin the slot and, if a
// Delete/replace quarantined it while lent out, return it to the
// freelist now that no reader can observe its recycled bytes.
func (seg *slabSegment) releaseBorrow(token uint64) {
	slot := int32(token)
	if seg.pins[slot].Add(-1) != 0 || !seg.quar[slot].Load() {
		return
	}
	s := seg.s
	s.mu.Lock()
	if !s.closed && seg.pins[slot].Load() == 0 && seg.quar[slot].CompareAndSwap(true, false) {
		s.free = append(s.free, slabLoc{seg: seg.num, slot: slot})
	}
	s.mu.Unlock()
}

// Slab is a slab/segment Store: large segment files divided into
// fixed-size slots, an in-memory key→slot index, and a freelist. All
// I/O is positioned (ReadAt/WriteAt), so operations on different
// chunks proceed fully in parallel; the store mutex guards only the
// in-memory maps, never the disk.
//
// Concurrency contract: a Get that races a Delete/replace of the same
// chunk re-checks the slot generation after the pread and retries (or
// reports ErrNotFound), so it never returns bytes from a torn or
// reused slot. Data for distinct chunks never shares a slot.
type Slab struct {
	dir string
	cfg SlabConfig

	stride   int64 // slabHeaderSize + SlotBytes, rounded up to slabAlign
	segBytes int64 // stride * SegmentSlots

	mu       sync.RWMutex
	index    map[uint64]slabEntry
	free     []slabLoc
	segments []*slabSegment
	nextSeq  uint64
	closed   bool

	// Idle private file descriptions GetSection lends out (see
	// lendFile), in the order they came back: oldest first. openFile
	// opens a new one when none is idle (os.Open; tests inject failure).
	fdMu     sync.Mutex
	idle     []idleFile
	fdClosed bool // Close ran: returning descriptions are closed, not kept
	openFile func(name string) (*os.File, error)
}

// slabIdleFiles bounds the idle file descriptions a slab keeps for
// GetSection, across all segments, so a disk of thousands of segments
// cannot pin thousands of descriptors. It covers a few dozen concurrent
// responses each holding one section; past it the least recently
// returned description is closed and a later section reopens its
// segment.
const slabIdleFiles = 64

// idleFile is one pooled private description of a segment file.
type idleFile struct {
	seg *slabSegment
	f   *os.File
}

// slabMeta is persisted as slab.meta so a reopen with a different
// geometry fails loudly instead of misreading every offset.
type slabMeta struct {
	Version      int   `json:"version"`
	SlotBytes    int64 `json:"slot_bytes"`
	SegmentSlots int   `json:"segment_slots"`
}

const slabMetaName = "slab.meta"

// NewSlab opens (or creates) a slab store rooted at dir and recovers
// the index with a sequential scan of every segment: headers are
// validated (magic + header CRC), bodies are verified against their
// CRC, duplicate keys are arbitrated by sequence number, and every
// invalid or losing slot is zeroed and returned to the freelist.
func NewSlab(dir string, cfg SlabConfig) (*Slab, error) {
	cfg = cfg.withDefaults()
	if cfg.SlotBytes < 1 {
		return nil, fmt.Errorf("store: slab slot size must be positive, got %d", cfg.SlotBytes)
	}
	if cfg.SegmentSlots < 1 {
		return nil, fmt.Errorf("store: slab segment slots must be positive, got %d", cfg.SegmentSlots)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating slab dir: %w", err)
	}
	stride := (slabHeaderSize + cfg.SlotBytes + slabAlign - 1) / slabAlign * slabAlign
	s := &Slab{
		dir:      dir,
		cfg:      cfg,
		stride:   stride,
		segBytes: stride * int64(cfg.SegmentSlots),
		index:    make(map[uint64]slabEntry),
		idle:     make([]idleFile, 0, slabIdleFiles),
		openFile: os.Open,
	}
	if err := s.checkMeta(); err != nil {
		return nil, err
	}
	if err := s.recover(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// checkMeta verifies (or writes) the geometry sidecar.
func (s *Slab) checkMeta() error {
	path := filepath.Join(s.dir, slabMetaName)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		buf, err := json.Marshal(slabMeta{Version: 1, SlotBytes: s.cfg.SlotBytes, SegmentSlots: s.cfg.SegmentSlots})
		if err != nil {
			return err
		}
		return os.WriteFile(path, buf, 0o644)
	}
	if err != nil {
		return err
	}
	var m slabMeta
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("store: corrupt %s: %w", slabMetaName, err)
	}
	if m.SlotBytes != s.cfg.SlotBytes || m.SegmentSlots != s.cfg.SegmentSlots {
		return fmt.Errorf("store: slab at %s has geometry slot=%d×%d, config wants %d×%d",
			s.dir, m.SlotBytes, m.SegmentSlots, s.cfg.SlotBytes, s.cfg.SegmentSlots)
	}
	return nil
}

func (s *Slab) segPath(i int) string {
	return filepath.Join(s.dir, fmt.Sprintf("seg-%05d.slab", i))
}

// useMmap reports whether segments should be memory-mapped.
func (s *Slab) useMmap() bool { return s.cfg.Mmap && mmapSupported }

// newSegment builds the in-memory bookkeeping for segment n. Pins are
// always allocated: GetSection lends slots on any build, not just
// mmap ones.
func (s *Slab) newSegment(n int, f *os.File) *slabSegment {
	return &slabSegment{
		s: s, num: int32(n), f: f,
		gens: make([]uint32, s.cfg.SegmentSlots),
		pins: make([]atomic.Int32, s.cfg.SegmentSlots),
		quar: make([]atomic.Bool, s.cfg.SegmentSlots),
	}
}

// mapSegment extends the segment file to its full size (sparse holes
// read as zeros, so a lazily grown file costs no disk) and maps it
// read-only. The fixed-length mapping can therefore never fault past
// EOF, and pwrites through the fd stay visible in it (MAP_SHARED: one
// unified page cache).
func (s *Slab) mapSegment(seg *slabSegment) error {
	fi, err := seg.f.Stat()
	if err != nil {
		return err
	}
	if fi.Size() < s.segBytes {
		if err := seg.f.Truncate(s.segBytes); err != nil {
			return fmt.Errorf("store: sizing slab segment for mmap: %w", err)
		}
	}
	data, err := mmapFile(seg.f, s.segBytes)
	if err != nil {
		return fmt.Errorf("store: mmap slab segment: %w", err)
	}
	seg.data = data
	return nil
}

// recover scans existing segment files in order and rebuilds the index
// and freelist. The scan is one sequential read per segment (buffered
// stride-at-a-time), so it runs at disk bandwidth.
func (s *Slab) recover() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	var segNums []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".slab") {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".slab"))
		if err != nil {
			continue
		}
		segNums = append(segNums, n)
	}
	sort.Ints(segNums)
	for want, got := range segNums {
		if want != got {
			return fmt.Errorf("store: slab segment %d missing (found seg-%05d.slab)", want, got)
		}
	}

	type winner struct {
		entry slabEntry
		seq   uint64
	}
	winners := make(map[uint64]winner)
	var losers []slabLoc // valid slots superseded by a higher seq
	buf := make([]byte, s.stride)

	for _, n := range segNums {
		f, err := os.OpenFile(s.segPath(n), os.O_RDWR, 0o644)
		if err != nil {
			return err
		}
		seg := s.newSegment(n, f)
		s.segments = append(s.segments, seg)

		fi, err := f.Stat()
		if err != nil {
			return err
		}
		fileSize := fi.Size()
		for slot := 0; slot < s.cfg.SegmentSlots; slot++ {
			loc := slabLoc{seg: int32(n), slot: int32(slot)}
			off := int64(slot) * s.stride
			if off >= fileSize {
				// Never written (lazily grown segment): free, and so is
				// everything after it only if the file simply ended —
				// later slots are also beyond EOF, handled the same way.
				s.free = append(s.free, loc)
				continue
			}
			readEnd := off + s.stride
			if readEnd > fileSize {
				readEnd = fileSize
			}
			hdr := buf[:readEnd-off]
			if m, err := f.ReadAt(hdr, off); err != nil && !(err == io.EOF && m == len(hdr)) {
				return fmt.Errorf("store: scanning %s slot %d: %w", s.segPath(n), slot, err)
			}
			key, seq, length, ok := parseSlotHeader(hdr)
			if ok && int64(length)+slabHeaderSize <= int64(len(hdr)) {
				body := hdr[slabHeaderSize : slabHeaderSize+int64(length)]
				if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(hdr[24:28]) {
					ok = false // torn body (write reordering across a crash)
				}
			} else {
				ok = false // header claims more body than the file holds
			}
			if !ok {
				// Garbage (free, torn, or corrupt). Scrub a non-zero
				// magic so the next restart doesn't re-parse the junk.
				if len(hdr) >= 4 && binary.LittleEndian.Uint32(hdr[:4]) != 0 {
					if err := s.zeroHeader(seg, loc); err != nil {
						return err
					}
				}
				s.free = append(s.free, loc)
				continue
			}
			prev, dup := winners[key]
			if dup && prev.seq >= seq {
				losers = append(losers, loc)
				continue
			}
			if dup {
				losers = append(losers, prev.entry.loc)
			}
			winners[key] = winner{entry: slabEntry{loc: loc, len: int32(length)}, seq: seq}
			if seq >= s.nextSeq {
				s.nextSeq = seq + 1
			}
		}
	}

	for key, w := range winners {
		s.index[key] = w.entry
	}
	for _, loc := range losers {
		if err := s.zeroHeader(s.segments[loc.seg], loc); err != nil {
			return err
		}
		s.free = append(s.free, loc)
	}
	// Hand out low offsets first: freshly created stores fill segment 0
	// front to back, which keeps lazily grown files dense.
	sort.Slice(s.free, func(i, j int) bool {
		a, b := s.free[i], s.free[j]
		if a.seg != b.seg {
			return a.seg > b.seg
		}
		return a.slot > b.slot
	})
	if s.useMmap() {
		// Map after the scan: scanning consults real file sizes to skip
		// never-written slots, mapping wants the file at full length.
		for _, seg := range s.segments {
			if err := s.mapSegment(seg); err != nil {
				return err
			}
		}
	}
	return nil
}

// parseSlotHeader validates the fixed header fields (magic, header
// CRC, sane length) and returns them. Body verification is the
// caller's concern.
func parseSlotHeader(hdr []byte) (key, seq uint64, length uint32, ok bool) {
	if len(hdr) < slabHeaderSize {
		return 0, 0, 0, false
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != slabMagic {
		return 0, 0, 0, false
	}
	if crc32.Checksum(hdr[0:28], castagnoli) != binary.LittleEndian.Uint32(hdr[28:32]) {
		return 0, 0, 0, false
	}
	length = binary.LittleEndian.Uint32(hdr[20:24])
	if int64(length) > int64(len(hdr))-slabHeaderSize {
		// Impossible length for this slot geometry: corrupt.
		return 0, 0, 0, false
	}
	return binary.LittleEndian.Uint64(hdr[4:12]), binary.LittleEndian.Uint64(hdr[12:20]), length, true
}

// zeroHeader scrubs a slot's on-disk magic so it can never be
// recovered. Only the 4 magic bytes are written; the stale body is
// unreachable without a valid header.
func (s *Slab) zeroHeader(seg *slabSegment, loc slabLoc) error {
	var zero [4]byte
	_, err := seg.f.WriteAt(zero[:], int64(loc.slot)*s.stride)
	return err
}

// grow adds one segment file and pushes its slots onto the freelist.
// Called with s.mu held.
func (s *Slab) grow() error {
	n := len(s.segments)
	f, err := os.OpenFile(s.segPath(n), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating slab segment: %w", err)
	}
	if s.cfg.Prealloc {
		if err := f.Truncate(s.segBytes); err != nil {
			f.Close()
			return fmt.Errorf("store: preallocating slab segment: %w", err)
		}
	}
	seg := s.newSegment(n, f)
	if s.useMmap() {
		if err := s.mapSegment(seg); err != nil {
			f.Close()
			return err
		}
	}
	s.segments = append(s.segments, seg)
	// Push in reverse so the LIFO freelist hands out slot 0 first.
	for slot := s.cfg.SegmentSlots - 1; slot >= 0; slot-- {
		s.free = append(s.free, slabLoc{seg: int32(n), slot: int32(slot)})
	}
	return nil
}

// alloc pops a free slot (growing if needed) and assigns a sequence
// number. Called with s.mu held.
func (s *Slab) alloc() (slabLoc, uint64, error) {
	if len(s.free) == 0 {
		if err := s.grow(); err != nil {
			return slabLoc{}, 0, err
		}
	}
	loc := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	seq := s.nextSeq
	s.nextSeq++
	return loc, seq, nil
}

// Put implements Store: one body pwrite + one header pwrite into a
// freshly allocated slot, then an index swap. Replacing an existing
// chunk writes the new slot first and frees the old one after the
// swap, so concurrent readers of the old slot either finish cleanly or
// detect the generation bump and retry.
func (s *Slab) Put(id chunk.ID, data []byte) error {
	if int64(len(data)) > s.cfg.SlotBytes {
		return fmt.Errorf("store: chunk %s is %d bytes, slab slot holds %d", id, len(data), s.cfg.SlotBytes)
	}
	key := id.Key()

	s.mu.Lock()
	loc, seq, err := s.alloc()
	if err != nil {
		s.mu.Unlock()
		return err
	}
	seg := s.segments[loc.seg]
	s.mu.Unlock()

	off := int64(loc.slot) * s.stride
	if _, err := seg.f.WriteAt(data, off+slabHeaderSize); err != nil {
		s.unalloc(loc)
		return fmt.Errorf("store: slab body write: %w", err)
	}
	return s.commitSlot(key, loc, seg, seq, len(data), crc32.Checksum(data, castagnoli))
}

// commitSlot writes the slot header (the commit point of a slab
// write) and swaps the index entry, freeing any replaced slot. Shared
// by Put and PutStream; the body bytes must already be on disk.
func (s *Slab) commitSlot(key uint64, loc slabLoc, seg *slabSegment, seq uint64, length int, bodyCRC uint32) error {
	off := int64(loc.slot) * s.stride
	var hdr [slabHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], slabMagic)
	binary.LittleEndian.PutUint64(hdr[4:12], key)
	binary.LittleEndian.PutUint64(hdr[12:20], seq)
	binary.LittleEndian.PutUint32(hdr[20:24], uint32(length))
	binary.LittleEndian.PutUint32(hdr[24:28], bodyCRC)
	binary.LittleEndian.PutUint32(hdr[28:32], crc32.Checksum(hdr[0:28], castagnoli))
	if _, err := seg.f.WriteAt(hdr[:], off); err != nil {
		s.unalloc(loc)
		return fmt.Errorf("store: slab header write: %w", err)
	}

	s.mu.Lock()
	old, replaced := s.index[key]
	s.index[key] = slabEntry{loc: loc, len: int32(length), gen: seg.gens[loc.slot]}
	var oldSeg *slabSegment
	if replaced {
		// Taken under the lock: grow appends to s.segments under it.
		oldSeg = s.segments[old.loc.seg]
		oldSeg.gens[old.loc.slot]++ // in-flight readers of the old slot now retry
	}
	s.mu.Unlock()

	if replaced {
		// Invalidate the superseded header before recycling the slot;
		// a crash in between leaves two valid headers and recovery
		// keeps ours (higher seq).
		if err := s.zeroHeader(oldSeg, old.loc); err != nil {
			return fmt.Errorf("store: slab replace scrub: %w", err)
		}
		s.mu.Lock()
		s.freeSlot(old.loc)
		s.mu.Unlock()
	}
	return nil
}

// PutStream implements StreamPutter: the body streams through scratch
// into a freshly allocated slot with the CRC accumulated per read, so
// a fill holds O(len(scratch)) bytes; the header pwrite (the commit
// point) happens only after a clean EOF, exactly as in Put. An
// aborted stream returns the headerless slot to the freelist — a
// crash or failure mid-body can never produce a phantom chunk, and a
// replaced chunk's old slot is untouched until the new one commits.
func (s *Slab) PutStream(id chunk.ID, r io.Reader, max int64, scratch []byte) (int64, error) {
	if max > s.cfg.SlotBytes {
		max = s.cfg.SlotBytes // a slot physically cannot hold more
	}
	key := id.Key()

	s.mu.Lock()
	loc, seq, err := s.alloc()
	if err != nil {
		s.mu.Unlock()
		return 0, err
	}
	seg := s.segments[loc.seg]
	s.mu.Unlock()

	if len(scratch) == 0 {
		scratch = make([]byte, 64<<10)
	}
	bodyOff := int64(loc.slot)*s.stride + slabHeaderSize
	var total int64
	var bodyCRC uint32
	abort := func(err error) (int64, error) {
		s.unalloc(loc)
		return 0, err
	}
	for {
		n, rerr := r.Read(scratch)
		if n > 0 {
			if total+int64(n) > max {
				return abort(ErrTooLarge)
			}
			if _, werr := seg.f.WriteAt(scratch[:n], bodyOff+total); werr != nil {
				return abort(fmt.Errorf("store: slab body write: %w", werr))
			}
			bodyCRC = crc32.Update(bodyCRC, castagnoli, scratch[:n])
			total += int64(n)
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return abort(rerr)
		}
	}
	if err := s.commitSlot(key, loc, seg, seq, int(total), bodyCRC); err != nil {
		return 0, err
	}
	return total, nil
}

// GetSection implements SectionGetter: the chunk's bytes as a region
// of its segment file, pinned like a borrow so a concurrent
// Delete/replace quarantines the slot instead of recycling it — the
// region's bytes are stable until Release. The *os.File is a private
// description of the segment, lent from the store's pool until Release:
// nobody else moves its offset, so it can go through an offset-moving
// syscall (sendfile) as it is. If no description can be had (EMFILE)
// the pin is dropped and the error returned; callers fall back to Get.
// Works with or without mmap — this is the kernel-side zero-copy path,
// GetBorrow is the userspace one.
func (s *Slab) GetSection(id chunk.ID) (Section, error) {
	key := id.Key()
	for {
		s.mu.RLock()
		e, ok := s.index[key]
		if !ok {
			s.mu.RUnlock()
			return Section{}, fmt.Errorf("%w: %s", ErrNotFound, id)
		}
		seg := s.segments[e.loc.seg]
		if seg.gens[e.loc.slot] != e.gen {
			// The slot was recycled after this entry was indexed; the
			// index must have moved on too — re-resolve.
			s.mu.RUnlock()
			continue
		}
		// Pin while the generation is provably current (free paths bump
		// gens under the write lock, which excludes this section).
		seg.pins[e.loc.slot].Add(1)
		s.mu.RUnlock()
		f, err := s.lendFile(seg)
		if err != nil {
			seg.releaseBorrow(uint64(e.loc.slot))
			return Section{}, fmt.Errorf("store: slab section %s: %w", id, err)
		}
		return Section{
			f:     f,
			off:   int64(e.loc.slot)*s.stride + slabHeaderSize,
			n:     int64(e.len),
			rel:   seg,
			token: uint64(e.loc.slot),
		}, nil
	}
}

// lendFile checks a private open file description of seg's file out of
// the pool — the one returned last, so the ones that age out are the
// surplus — and opens a new one by path only when none is idle. A dup
// of seg.f would not do: dup(2)'d descriptors share one offset.
func (s *Slab) lendFile(seg *slabSegment) (*os.File, error) {
	s.fdMu.Lock()
	for i := len(s.idle) - 1; i >= 0; i-- {
		if s.idle[i].seg == seg {
			f := s.idle[i].f
			s.idle = slices.Delete(s.idle, i, i+1)
			s.fdMu.Unlock()
			return f, nil
		}
	}
	s.fdMu.Unlock()
	return s.openFile(seg.f.Name())
}

// releaseSection implements sectionReleaser: the description goes back
// to the pool, pushing out the least recently returned one when the
// pool is full, and the slot is unpinned. After Close nothing is
// pooled: a section that outlived the store closes its own file.
func (seg *slabSegment) releaseSection(f *os.File, token uint64) {
	s := seg.s
	surplus := f
	s.fdMu.Lock()
	if !s.fdClosed {
		surplus = nil
		if len(s.idle) == slabIdleFiles {
			surplus = s.idle[0].f
			s.idle = slices.Delete(s.idle, 0, 1)
		}
		s.idle = append(s.idle, idleFile{seg: seg, f: f})
	}
	s.fdMu.Unlock()
	if surplus != nil {
		surplus.Close()
	}
	seg.releaseBorrow(token)
}

// unalloc returns a slot whose write failed to the freelist.
func (s *Slab) unalloc(loc slabLoc) {
	s.mu.Lock()
	s.segments[loc.seg].gens[loc.slot]++
	s.freeSlot(loc)
	s.mu.Unlock()
}

// freeSlot returns loc to the freelist — unless outstanding borrows
// still pin it, in which case it is quarantined and handed back by the
// last releaseBorrow (the zeroHeader scrub only touches the 4 magic
// bytes, so a lent body is never overwritten while quarantined, and no
// new borrow can pin a slot with no index entry). Called with s.mu
// held.
func (s *Slab) freeSlot(loc slabLoc) {
	seg := s.segments[loc.seg]
	if seg.pins != nil && seg.pins[loc.slot].Load() > 0 {
		seg.quar[loc.slot].Store(true)
		// The last borrower may have released between our two pin loads
		// and missed the flag; re-check, and let the CAS decide who owns
		// pushing the slot back.
		if seg.pins[loc.slot].Load() == 0 && seg.quar[loc.slot].CompareAndSwap(true, false) {
			s.free = append(s.free, loc)
		}
		return
	}
	s.free = append(s.free, loc)
}

// Get implements Store: a single positioned read into buf's spare
// capacity (grown once if needed) — zero allocations when the caller
// cycles one buffer, as the edge serve path does. The slot generation
// is re-checked after the read; a race with Delete/replace retries.
func (s *Slab) Get(id chunk.ID, buf []byte) ([]byte, error) {
	key := id.Key()
	for {
		s.mu.RLock()
		e, ok := s.index[key]
		var seg *slabSegment
		var gen uint32
		if ok {
			seg = s.segments[e.loc.seg]
			gen = seg.gens[e.loc.slot]
		}
		s.mu.RUnlock()
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
		}
		if gen != e.gen {
			// The slot was recycled after this entry was indexed but
			// before we read it; the index must have moved on too.
			continue
		}

		off, n := len(buf), int(e.len)
		if cap(buf)-off < n {
			grown := make([]byte, off+n)
			copy(grown, buf)
			buf = grown
		} else {
			buf = buf[:off+n]
		}
		if _, err := seg.f.ReadAt(buf[off:off+n], int64(e.loc.slot)*s.stride+slabHeaderSize); err != nil {
			return nil, fmt.Errorf("store: slab read %s: %w", id, err)
		}

		s.mu.RLock()
		e2, ok2 := s.index[key]
		gen2 := seg.gens[e.loc.slot]
		s.mu.RUnlock()
		if ok2 && e2 == e && gen2 == gen {
			return buf, nil
		}
		buf = buf[:off]
		if !ok2 {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
		}
		// Replaced mid-read: retry against the new slot.
	}
}

// Delete implements Store: drop the index entry, bump the slot
// generation (stops in-flight readers), scrub the on-disk header so a
// restart cannot resurrect the chunk, and free the slot.
func (s *Slab) Delete(id chunk.ID) error {
	key := id.Key()
	s.mu.Lock()
	e, ok := s.index[key]
	if !ok {
		s.mu.Unlock()
		return nil
	}
	delete(s.index, key)
	seg := s.segments[e.loc.seg]
	seg.gens[e.loc.slot]++
	s.mu.Unlock()

	if err := s.zeroHeader(seg, e.loc); err != nil {
		// The chunk is gone from the index either way; without the
		// scrub a crash could resurrect it, so surface the error.
		return fmt.Errorf("store: slab delete scrub: %w", err)
	}
	s.mu.Lock()
	s.freeSlot(e.loc)
	s.mu.Unlock()
	return nil
}

// GetBorrow implements BorrowGetter when the store was opened with
// SlabConfig.Mmap: the returned view aliases the segment mapping, so a
// cold hit is served by the page cache with no pread and no copy. The
// view pins its slot — a concurrent Delete/replace quarantines the
// slot instead of recycling it — so the bytes stay stable until
// Release. Without mmap (or on unsupported platforms) it reports
// ErrNoBorrow and callers fall back to Get.
func (s *Slab) GetBorrow(id chunk.ID) (Borrowed, error) {
	key := id.Key()
	for {
		s.mu.RLock()
		e, ok := s.index[key]
		if !ok {
			s.mu.RUnlock()
			return Borrowed{}, fmt.Errorf("%w: %s", ErrNotFound, id)
		}
		seg := s.segments[e.loc.seg]
		if seg.data == nil {
			s.mu.RUnlock()
			return Borrowed{}, ErrNoBorrow
		}
		if seg.gens[e.loc.slot] != e.gen {
			// The slot was recycled after this entry was indexed; the
			// index must have moved on too — re-resolve.
			s.mu.RUnlock()
			continue
		}
		// Pin while the generation is provably current (free paths bump
		// gens under the write lock, which excludes this section), so
		// the slot body cannot be recycled from under the view.
		seg.pins[e.loc.slot].Add(1)
		s.mu.RUnlock()
		off := int64(e.loc.slot)*s.stride + slabHeaderSize
		return Borrowed{Data: seg.data[off : off+int64(e.len)], rel: seg, token: uint64(e.loc.slot)}, nil
	}
}

// Has implements Store.
func (s *Slab) Has(id chunk.ID) bool {
	s.mu.RLock()
	_, ok := s.index[id.Key()]
	s.mu.RUnlock()
	return ok
}

// Len implements Store.
func (s *Slab) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Segments reports how many segment files back the store (operational
// introspection, tests).
func (s *Slab) Segments() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.segments)
}

// Close releases the segment file handles, the idle section
// descriptions and the mappings. The store must not be used afterwards.
// What is lent out stays readable: a segment with outstanding borrows
// keeps its mapping (a mapping survives its descriptor), and an
// outstanding Section keeps its private description, which its Release
// closes.
func (s *Slab) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	var first error
	s.fdMu.Lock()
	s.fdClosed = true
	idle := s.idle
	s.idle = nil
	s.fdMu.Unlock()
	for _, it := range idle {
		if err := it.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, seg := range s.segments {
		if seg.data != nil {
			pinned := false
			for i := range seg.pins {
				if seg.pins[i].Load() != 0 {
					pinned = true
					break
				}
			}
			if !pinned {
				if err := munmapFile(seg.data); err != nil && first == nil {
					first = err
				}
			}
			seg.data = nil
		}
		if err := seg.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.segments = nil
	s.index = map[uint64]slabEntry{}
	s.free = nil
	return first
}

var (
	_ Store         = (*Slab)(nil)
	_ BorrowGetter  = (*Slab)(nil)
	_ SectionGetter = (*Slab)(nil)
	_ StreamPutter  = (*Slab)(nil)
)
