// Package store provides the byte-level chunk stores behind the HTTP
// edge server: the cache algorithms decide *which* chunks live on
// disk, a Store holds their *bytes*.
//
// Two implementations are provided: an in-memory store (tests, small
// deployments, benchmarks) and a filesystem store that lays chunks out
// as fixed-size files sharded across directories — the "divide the
// disk into small fixed-size chunks" allocation scheme of Section 4,
// which avoids allocating and deallocating variable-size extents.
package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"videocdn/internal/chunk"
)

// ErrNotFound is returned by Get for absent chunks.
var ErrNotFound = errors.New("store: chunk not found")

// Store holds chunk bytes. Implementations are safe for concurrent
// use.
type Store interface {
	// Put stores data as the chunk's contents, replacing any previous
	// value.
	Put(id chunk.ID, data []byte) error
	// Get returns the chunk's contents (a copy appended to buf, which
	// may be nil) or ErrNotFound.
	Get(id chunk.ID, buf []byte) ([]byte, error)
	// Delete removes the chunk; deleting an absent chunk is a no-op.
	Delete(id chunk.ID) error
	// Has reports whether the chunk is present.
	Has(id chunk.ID) bool
	// Len returns the number of stored chunks.
	Len() int
}

// ---------- Zero-copy borrow contract ----------

// ErrNoBorrow is returned by GetBorrow when the store holds the chunk
// but cannot lend a stable view of its bytes (e.g. a slab store opened
// without mmap, or a filesystem store). Callers fall back to Get; the
// chunk itself is present, so ErrNoBorrow is never an ErrNotFound.
var ErrNoBorrow = errors.New("store: zero-copy borrow unavailable")

// BorrowGetter is the optional zero-copy read capability. GetBorrow
// returns a view of the chunk's bytes that stays valid — never mutated,
// never recycled — until Release is called, so the serve path can write
// the slice straight to the client without copying through a buffer.
// Errors: ErrNotFound if the chunk is absent, ErrNoBorrow if this store
// (or the chunk's current residency) cannot lend bytes.
type BorrowGetter interface {
	GetBorrow(id chunk.ID) (Borrowed, error)
}

// Borrowed is a zero-copy view of one chunk's contents. It is a plain
// value (no heap allocation on the borrow path); callers must not
// retain Data after Release, and must call Release exactly once for
// every successful GetBorrow — a store lending pinned resources (the
// mmap slab) cannot recycle the underlying slot until then. Release on
// the zero value is a no-op, as is releasing a view of GC-managed bytes.
type Borrowed struct {
	Data  []byte
	rel   borrowReleaser
	token uint64
}

// Release returns the view to the store. Safe on the zero value.
func (b Borrowed) Release() {
	if b.rel != nil {
		b.rel.releaseBorrow(b.token)
	}
}

// borrowReleaser is implemented by stores whose borrows pin a resource
// (an interface rather than a closure so the borrow path stays
// allocation-free).
type borrowReleaser interface {
	releaseBorrow(token uint64)
}

// ---------- Kernel zero-copy section contract ----------

// ErrNoSection is returned by GetSection when the store holds the
// chunk but cannot expose its bytes as a file section (an in-memory
// store). The chunk itself is present, so ErrNoSection is never an
// ErrNotFound; callers fall back to GetBorrow/Get.
var ErrNoSection = errors.New("store: file section unavailable")

// SectionGetter is the optional kernel zero-copy read capability:
// file-backed stores expose one chunk as a contiguous region of an
// open file, so the serve path can hand the region to the kernel
// (sendfile(2) via net/http's ReadFrom) and the chunk's bytes never
// cross userspace at all. Errors: ErrNotFound if the chunk is absent,
// ErrNoSection if this store (or the chunk's current residency)
// cannot expose a section.
type SectionGetter interface {
	GetSection(id chunk.ID) (Section, error)
}

// Section is one chunk's bytes as a region of an open file. Like
// Borrowed, the region is guaranteed stable — never mutated, never
// recycled — until Release, and Release must be called exactly once
// per successful GetSection. The *os.File is an open file description
// no other section holds: the FS store opens the chunk's file per call,
// the slab lends one of its segment's descriptions from a pool.
// sendfile(2) reads from and advances the description's offset, and
// dup(2)'d descriptors share one, so a private description — not a dup
// — is what keeps concurrent responses out of each other's bodies.
type Section struct {
	f     *os.File
	off   int64
	n     int64
	rel   sectionReleaser
	token uint64
}

// sectionReleaser takes back what a section holds: its file
// description and whatever token names (an interface rather than a
// closure so GetSection stays allocation-free).
type sectionReleaser interface {
	releaseSection(f *os.File, token uint64)
}

// File returns the open file holding the section. It is the caller's
// alone until Release: Seek and Read are as safe as ReadAt. It must
// not be closed, and not used after Release.
func (s Section) File() *os.File { return s.f }

// Offset is the section's first byte within File.
func (s Section) Offset() int64 { return s.off }

// Size is the section's length in bytes.
func (s Section) Size() int64 { return s.n }

// Release returns the section to the store, which closes or reuses the
// file and may recycle the pinned slot (if any). Safe on the zero
// value.
func (s Section) Release() {
	if s.rel != nil {
		s.rel.releaseSection(s.f, s.token)
	}
}

// ---------- Streaming write contract ----------

// ErrTooLarge is returned by PutStream when the reader yields more
// than the caller's size limit. The store is left exactly as it was:
// a previously committed value for the chunk survives, partial bytes
// are discarded.
var ErrTooLarge = errors.New("store: streamed chunk exceeds the size limit")

// StreamPutter is the optional streaming write capability: the
// chunk's bytes are consumed from r through a fixed-size buffer
// instead of arriving as one materialized slice, so a disk-backed
// store writes a network fill while holding O(buffer) rather than
// O(chunk) bytes in memory.
//
// PutStream reads r to EOF and commits the bytes as the chunk's
// contents, replacing any previous value, and returns the committed
// length. If r yields more than max bytes the put is aborted with
// ErrTooLarge; if r fails mid-stream the put is aborted and the
// reader's error is returned unwrapped (so callers can classify
// network failures); any other error is the store's own. On any error
// the chunk's previous value (or absence) is intact.
//
// scratch, when non-nil, is used as the copy buffer — callers pool it
// so steady-state fills do not allocate. Implementations that must
// materialize the bytes anyway (RAM stores) may ignore it.
type StreamPutter interface {
	PutStream(id chunk.ID, r io.Reader, max int64, scratch []byte) (int64, error)
}

// readAtMost reads r to EOF into one slice, failing with ErrTooLarge
// if more than max bytes arrive. Used by stores that hold chunk bytes
// in RAM anyway: the returned slice is the store's copy, allocated
// once at the size cap, so nothing transient is retained.
func readAtMost(r io.Reader, max int64) ([]byte, error) {
	if max < 0 {
		max = 0
	}
	buf := make([]byte, 0, max+1)
	for {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			if int64(len(buf)) > max {
				return nil, ErrTooLarge
			}
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
		if int64(len(buf)) > max {
			return nil, ErrTooLarge
		}
		if len(buf) == cap(buf) {
			// cap is max+1 and every byte of it is full: over the limit.
			return nil, ErrTooLarge
		}
	}
}

// ---------- In-memory store ----------

// memStripes is the number of independent lock domains in Mem (a
// power of two). 64 stripes keep lock contention negligible for any
// realistic goroutine count while costing ~4 KB of fixed overhead.
const memStripes = 64

// Mem is a map-backed Store. The key space is striped across
// independently locked sub-maps so concurrent readers and writers of
// different chunks never contend on one RWMutex (the edge serve path
// reads the store on every cache hit).
type Mem struct {
	stripes [memStripes]memStripe
}

// memStripe is one lock domain, padded to a cache line so stripe
// locks on adjacent array slots do not false-share.
type memStripe struct {
	mu sync.RWMutex
	m  map[uint64][]byte
	_  [32]byte // sizeof(RWMutex)+sizeof(map) = 32; pad to 64
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	s := &Mem{}
	for i := range s.stripes {
		s.stripes[i].m = make(map[uint64][]byte)
	}
	return s
}

// stripe picks the lock domain for a chunk key. The key packs
// video<<32|index, so adjacent chunks of one video share high bits;
// multiply-shift by the splitmix64 constant scatters them.
func (s *Mem) stripe(key uint64) *memStripe {
	return &s.stripes[(key*0x9E3779B97F4A7C15)>>(64-6)]
}

// Put implements Store.
func (s *Mem) Put(id chunk.ID, data []byte) error {
	cp := append([]byte(nil), data...)
	st := s.stripe(id.Key())
	st.mu.Lock()
	st.m[id.Key()] = cp
	st.mu.Unlock()
	return nil
}

// Get implements Store.
func (s *Mem) Get(id chunk.ID, buf []byte) ([]byte, error) {
	st := s.stripe(id.Key())
	st.mu.RLock()
	data, ok := st.m[id.Key()]
	st.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return append(buf, data...), nil
}

// GetBorrow implements BorrowGetter. Safe without pinning: Mem never
// mutates a stored slice in place (Put installs a fresh copy), so the
// returned view stays valid for as long as the caller holds it — a
// racing replace or delete only drops the map's reference, and the GC
// keeps the borrowed bytes alive.
func (s *Mem) GetBorrow(id chunk.ID) (Borrowed, error) {
	st := s.stripe(id.Key())
	st.mu.RLock()
	data, ok := st.m[id.Key()]
	st.mu.RUnlock()
	if !ok {
		return Borrowed{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return Borrowed{Data: data}, nil
}

// PutStream implements StreamPutter. A RAM store materializes the
// chunk regardless — the one allocation is the stored copy itself, so
// scratch is ignored and nothing transient survives the call.
func (s *Mem) PutStream(id chunk.ID, r io.Reader, max int64, _ []byte) (int64, error) {
	data, err := readAtMost(r, max)
	if err != nil {
		return 0, err
	}
	st := s.stripe(id.Key())
	st.mu.Lock()
	st.m[id.Key()] = data
	st.mu.Unlock()
	return int64(len(data)), nil
}

// Delete implements Store.
func (s *Mem) Delete(id chunk.ID) error {
	st := s.stripe(id.Key())
	st.mu.Lock()
	delete(st.m, id.Key())
	st.mu.Unlock()
	return nil
}

// Has implements Store.
func (s *Mem) Has(id chunk.ID) bool {
	st := s.stripe(id.Key())
	st.mu.RLock()
	_, ok := st.m[id.Key()]
	st.mu.RUnlock()
	return ok
}

// Len implements Store. The count is per-stripe-consistent: each
// stripe is read under its own lock, so concurrent mutation can be
// observed in one stripe and not another, but a quiesced store's count
// is exact.
func (s *Mem) Len() int {
	n := 0
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.RLock()
		n += len(st.m)
		st.mu.RUnlock()
	}
	return n
}

// ---------- Filesystem store ----------

// FSConfig tunes the filesystem store.
type FSConfig struct {
	// Durable makes Put fsync the temp file before the rename and the
	// shard directory after it, so a committed chunk survives power
	// loss (not just process crash). Off by default: a video cache can
	// refetch lost chunks from the origin, so most deployments prefer
	// the cheaper rename-only atomicity.
	Durable bool
}

// FS stores each chunk as a file "<shard>/<video>-<index>" under a
// root directory, with 256 precreated shard directories to keep each
// directory small.
type FS struct {
	root string
	cfg  FSConfig
	mu   sync.RWMutex
	n    int
	seen map[uint64]struct{}

	// crashAfterTemp, when set by a test, makes Put stop after writing
	// the temp file — simulating a crash between the write and the
	// rename.
	crashAfterTemp func() error
}

// fsShard is the shard directory index for a chunk key. The key packs
// video<<32|index, so consecutive chunks of one video share high bits
// and the old `key>>3%256` piled them into a handful of directories;
// the splitmix64 multiply-shift (same scatter as Mem.stripe) spreads
// them uniformly across all 256.
func fsShard(key uint64) uint8 {
	return uint8((key * 0x9E3779B97F4A7C15) >> 56)
}

// parseChunkName parses a "<video>-<index>" chunk filename. It
// replaces the old fmt.Sscanf call, which accepted junk like leading
// "+", stray trailing text, and values overflowing the on-disk key
// layout. Returns ok=false for anything that Put could not have
// written.
func parseChunkName(name string) (chunk.ID, bool) {
	dash := -1
	for i := 0; i < len(name); i++ {
		if name[i] == '-' {
			dash = i
			break
		}
	}
	if dash <= 0 || dash == len(name)-1 {
		return chunk.ID{}, false
	}
	video, ok := parseChunkUint(name[:dash], 1<<32-1)
	if !ok {
		return chunk.ID{}, false
	}
	index, ok := parseChunkUint(name[dash+1:], 1<<32-1)
	if !ok {
		return chunk.ID{}, false
	}
	return chunk.ID{Video: chunk.VideoID(video), Index: uint32(index)}, true
}

// parseChunkUint parses a non-empty all-digit string into a uint64,
// rejecting values above max. No sign, no whitespace, no hex.
func parseChunkUint(s string, max uint64) (uint64, bool) {
	if len(s) == 0 {
		return 0, false
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		if v > max/10 {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
		if v > max {
			return 0, false
		}
	}
	return v, true
}

// NewFS creates (or reuses) the root directory and scans existing
// chunks.
func NewFS(root string) (*FS, error) {
	return NewFSWithConfig(root, FSConfig{})
}

// NewFSWithConfig is NewFS with explicit tuning.
func NewFSWithConfig(root string, cfg FSConfig) (*FS, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating root: %w", err)
	}
	// Precreate every shard directory once, so Put never pays a
	// MkdirAll on the hot path.
	for i := 0; i < 256; i++ {
		if err := os.Mkdir(filepath.Join(root, fmt.Sprintf("%02x", i)), 0o755); err != nil && !os.IsExist(err) {
			return nil, fmt.Errorf("store: creating shard dir: %w", err)
		}
	}
	s := &FS{root: root, cfg: cfg, seen: make(map[uint64]struct{})}
	// Recover existing chunks (restart support); stray .tmp files from a
	// crashed Put are removed.
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(root, e.Name())
		files, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		for _, f := range files {
			name := f.Name()
			if len(name) > 4 && name[len(name)-4:] == ".tmp" {
				_ = os.Remove(filepath.Join(dir, name))
				continue
			}
			id, ok := parseChunkName(name)
			if !ok {
				continue
			}
			key := id.Key()
			if e.Name() != fmt.Sprintf("%02x", fsShard(key)) {
				// A chunk file in a directory fsShard does not name is
				// unreachable by path(); don't index what Get could
				// never read.
				continue
			}
			if _, dup := s.seen[key]; !dup {
				s.seen[key] = struct{}{}
				s.n++
			}
		}
	}
	return s, nil
}

func (s *FS) path(id chunk.ID) string {
	shard := fmt.Sprintf("%02x", fsShard(id.Key()))
	return filepath.Join(s.root, shard, fmt.Sprintf("%d-%d", id.Video, id.Index))
}

// Put implements Store.
func (s *FS) Put(id chunk.ID, data []byte) error {
	p := s.path(id)
	tmp := p + ".tmp"
	if s.cfg.Durable {
		if err := writeFileSync(tmp, data); err != nil {
			return err
		}
	} else if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if s.crashAfterTemp != nil {
		return s.crashAfterTemp()
	}
	if err := os.Rename(tmp, p); err != nil {
		return err
	}
	if s.cfg.Durable {
		if err := syncDir(filepath.Dir(p)); err != nil {
			return err
		}
	}
	s.commitKey(id)
	return nil
}

// writeFileSync writes data to path and fsyncs it before closing.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory, making a completed rename durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Get implements Store. The chunk is read directly into buf's spare
// capacity (grown once if needed) rather than into a fresh slice per
// read, so a caller cycling one buffer — the edge serve path — reads
// chunks without allocating.
func (s *FS) Get(id chunk.ID, buf []byte) ([]byte, error) {
	f, err := os.Open(s.path(id))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
		}
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	off, n := len(buf), int(fi.Size())
	if cap(buf)-off < n {
		grown := make([]byte, off+n)
		copy(grown, buf)
		buf = grown
	} else {
		buf = buf[:off+n]
	}
	if _, err := io.ReadFull(f, buf[off:]); err != nil {
		return nil, err
	}
	return buf, nil
}

// GetSection implements SectionGetter: each chunk is one file, so the
// section is the whole file at offset 0. The *os.File is opened per
// call and Release closes it; a racing Delete only unlinks the path —
// the open descriptor keeps the inode alive, so the section's bytes
// stay readable until Release.
func (s *FS) GetSection(id chunk.ID) (Section, error) {
	f, err := os.Open(s.path(id))
	if err != nil {
		if os.IsNotExist(err) {
			return Section{}, fmt.Errorf("%w: %s", ErrNotFound, id)
		}
		return Section{}, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return Section{}, err
	}
	return Section{f: f, off: 0, n: fi.Size(), rel: s}, nil
}

// releaseSection implements sectionReleaser.
func (s *FS) releaseSection(f *os.File, _ uint64) { f.Close() }

// PutStream implements StreamPutter: the body streams through scratch
// straight into the temp file, so a fill holds O(len(scratch)) bytes
// however large the chunk is. The commit (rename, fsync policy, index
// bookkeeping) is exactly Put's; an aborted stream removes the temp
// file and leaves any committed value intact.
func (s *FS) PutStream(id chunk.ID, r io.Reader, max int64, scratch []byte) (int64, error) {
	p := s.path(id)
	tmp := p + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	if len(scratch) == 0 {
		scratch = make([]byte, 64<<10)
	}
	var total int64
	abort := func(err error) (int64, error) {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	for {
		n, rerr := r.Read(scratch)
		if n > 0 {
			if total+int64(n) > max {
				return abort(ErrTooLarge)
			}
			if _, werr := f.Write(scratch[:n]); werr != nil {
				return abort(werr)
			}
			total += int64(n)
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return abort(rerr)
		}
	}
	if s.cfg.Durable {
		if err := f.Sync(); err != nil {
			return abort(err)
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if s.crashAfterTemp != nil {
		return 0, s.crashAfterTemp()
	}
	if err := os.Rename(tmp, p); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if s.cfg.Durable {
		if err := syncDir(filepath.Dir(p)); err != nil {
			return 0, err
		}
	}
	s.commitKey(id)
	return total, nil
}

// commitKey records a freshly renamed chunk file in the index (shared
// by Put and PutStream).
func (s *FS) commitKey(id chunk.ID) {
	key := id.Key()
	s.mu.Lock()
	if _, ok := s.seen[key]; !ok {
		s.seen[key] = struct{}{}
		s.n++
	}
	s.mu.Unlock()
}

// Delete implements Store.
func (s *FS) Delete(id chunk.ID) error {
	err := os.Remove(s.path(id))
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	key := id.Key()
	s.mu.Lock()
	if _, ok := s.seen[key]; ok {
		delete(s.seen, key)
		s.n--
	}
	s.mu.Unlock()
	return nil
}

// Has implements Store.
func (s *FS) Has(id chunk.ID) bool {
	s.mu.RLock()
	_, ok := s.seen[id.Key()]
	s.mu.RUnlock()
	return ok
}

// Keys lists the chunks the store holds, in key order: what a
// restarting edge sweeps against its policy's residency.
func (s *FS) Keys() []chunk.ID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return sortedIDs(s.seen)
}

// sortedIDs returns the IDs of a key set in key order.
func sortedIDs[V any](keys map[uint64]V) []chunk.ID {
	ks := make([]uint64, 0, len(keys))
	for k := range keys {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	ids := make([]chunk.ID, len(ks))
	for i, k := range ks {
		ids[i] = chunk.FromKey(k)
	}
	return ids
}

// Len implements Store.
func (s *FS) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.n
}

var (
	_ Store         = (*Mem)(nil)
	_ Store         = (*FS)(nil)
	_ BorrowGetter  = (*Mem)(nil)
	_ StreamPutter  = (*Mem)(nil)
	_ StreamPutter  = (*FS)(nil)
	_ SectionGetter = (*FS)(nil)
)
