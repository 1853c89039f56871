package trace

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"videocdn/internal/chunk"
)

// Dir is a columnar trace directory opened for reading. It implements
// Source, so it plugs directly into the replay engines; every cursor it hands out owns its own file
// descriptors and decode buffers, so cursors over the same directory
// are safe to drive from concurrent goroutines.
type Dir struct {
	dir string
	man Manifest
}

// OpenDir opens a columnar trace directory. Errors name the directory.
func OpenDir(dir string) (*Dir, error) {
	man, err := readManifest(dir)
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", dir, err)
	}
	return &Dir{dir: dir, man: man}, nil
}

func readManifest(dir string) (Manifest, error) {
	var man Manifest
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return man, fmt.Errorf("not a columnar trace directory: %w", err)
	}
	if err := json.Unmarshal(data, &man); err != nil {
		return man, fmt.Errorf("%s: %w", ManifestName, err)
	}
	if man.Format != ManifestFormat {
		return man, fmt.Errorf("%s: unknown format %q", ManifestName, man.Format)
	}
	if man.Version != 1 && man.Version != manifestVersion {
		return man, fmt.Errorf("%s: unsupported version %d", ManifestName, man.Version)
	}
	if man.ShardCount <= 0 || man.ShardCount&(man.ShardCount-1) != 0 {
		return man, fmt.Errorf("%s: shard count %d is not a positive power of two", ManifestName, man.ShardCount)
	}
	if man.Parts <= 0 {
		return man, fmt.Errorf("%s: non-positive part count %d", ManifestName, man.Parts)
	}
	var total uint64
	for _, s := range man.Segments {
		if s.Shard < 0 || s.Shard >= man.ShardCount || s.Part < 0 || s.Part >= man.Parts {
			return man, fmt.Errorf("%s: segment %q out of range (shard %d, part %d)", ManifestName, s.File, s.Shard, s.Part)
		}
		total += s.Requests
	}
	if total != man.Requests {
		return man, fmt.Errorf("%s: segment requests sum to %d, manifest says %d", ManifestName, total, man.Requests)
	}
	return man, nil
}

// Manifest returns the directory's manifest.
func (d *Dir) Manifest() Manifest { return d.man }

// Len implements Source: the exact request count from the manifest.
func (d *Dir) Len() int64 { return int64(d.man.Requests) }

// TimeSpan implements Source.
func (d *Dir) TimeSpan() (int64, int64, bool) {
	if d.man.Requests == 0 {
		return 0, 0, false
	}
	return d.man.MinTime, d.man.MaxTime, true
}

// Cursor implements Source: every segment merged by (Time, Part, Seq)
// — the exact order the trace was written in when it has one part,
// and the canonical deterministic order otherwise. A directory whose
// parts were split over several shard segments by an older writer
// merges back into the same order. The cursor is an EventCursor.
func (d *Dir) Cursor() (Cursor, error) {
	cursors := make([]*segCursor, 0, len(d.man.Segments))
	for i := range d.man.Segments {
		info := &d.man.Segments[i]
		sc, err := openSeg(filepath.Join(d.dir, info.File), info)
		if err != nil {
			for _, c := range cursors {
				c.Close()
			}
			return nil, err
		}
		cursors = append(cursors, sc)
	}
	switch len(cursors) {
	case 0:
		return &sliceCursor{}, nil
	case 1:
		return cursors[0], nil
	default:
		streams := make([]colStream, len(cursors))
		for i, c := range cursors {
			streams[i] = colStream{sc: c}
		}
		return &colMerge{streams: streams}, nil
	}
}

// Close releases the directory. Cursors own their files, so this is a
// no-op kept for symmetry with other trace handles.
func (d *Dir) Close() error { return nil }

// ---------- Segment cursor ----------

// segCursor streams one segment block by block, reading each block
// with one ReadAt (a pread on the segment file; the fuzzer hands it a
// bytes.Reader). Steady-state Next is allocation-free: the six column
// slices and the read buffer are allocated once (at the first block)
// and reused for every subsequent block.
type segCursor struct {
	r       io.ReaderAt // closed by Close when it is an io.Closer
	size    int64
	shard   uint32
	part    uint32
	version int // 1: no kind column

	index            []indexEntry
	indexOff         int64
	total            uint64
	minTime, maxTime int64 // the trailer's span

	blockIdx int
	times    []int64
	seqs     []uint64
	videos   []uint64
	starts   []int64
	lengths  []int64
	kinds    []Kind
	pos, n   int

	lastSeq  uint64 // seq of the request most recently returned by Next
	lastKind Kind   // its kind
	prevTime int64  // continuity across blocks
	prevSeq  uint64
	started  bool

	buf []byte // read scratch
	err error
}

// openSeg opens and validates one segment file. info, when non-nil, is
// the manifest entry to cross-check against; nil skips the cross-check
// (tests and tools parsing a bare segment).
func openSeg(path string, info *SegmentInfo) (*segCursor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	sc, err := newSegCursor(f, st.Size(), info)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("trace: %s: %w", filepath.Base(path), err)
	}
	return sc, nil
}

func newSegCursor(r io.ReaderAt, sz int64, info *SegmentInfo) (*segCursor, error) {
	if sz < segHeaderSize+segTrailerSize {
		return nil, fmt.Errorf("segment truncated: %d bytes", sz)
	}
	sc := &segCursor{r: r, size: sz}
	hdr, err := sc.read(0, segHeaderSize)
	if err != nil {
		return nil, err
	}
	switch [8]byte(hdr[0:8]) {
	case segMagic:
		sc.version = 2
	case segMagicV1:
		sc.version = 1
	default:
		return nil, fmt.Errorf("bad segment magic %q", hdr[0:8])
	}
	sc.shard = binary.LittleEndian.Uint32(hdr[8:12])
	sc.part = binary.LittleEndian.Uint32(hdr[12:16])
	tr, err := sc.read(sz-segTrailerSize, segTrailerSize)
	if err != nil {
		return nil, err
	}
	if [8]byte(tr[40:48]) != endMagic {
		return nil, fmt.Errorf("bad trailer magic %q (truncated segment?)", tr[40:48])
	}
	indexOff := binary.LittleEndian.Uint64(tr[0:8])
	blockCount := uint64(binary.LittleEndian.Uint32(tr[8:12]))
	sc.total = binary.LittleEndian.Uint64(tr[12:20])
	sc.minTime = int64(binary.LittleEndian.Uint64(tr[20:28]))
	sc.maxTime = int64(binary.LittleEndian.Uint64(tr[28:36]))
	indexCRC := binary.LittleEndian.Uint32(tr[36:40])
	indexLen := blockCount * indexEntrySize
	if indexOff < segHeaderSize || indexOff > uint64(sz-segTrailerSize) ||
		indexLen != uint64(sz-segTrailerSize)-indexOff {
		return nil, fmt.Errorf("index bounds [%d,+%d) inconsistent with file size %d", indexOff, indexLen, sz)
	}
	sc.indexOff = int64(indexOff)
	idx, err := sc.read(sc.indexOff, int(indexLen))
	if err != nil {
		return nil, err
	}
	if crc32.Checksum(idx, castagnoli) != indexCRC {
		return nil, errors.New("index checksum mismatch")
	}
	// Block extents are derived from consecutive index offsets (block i
	// ends where block i+1 — or the index — begins), so the offsets
	// must start right after the header and strictly increase, and the
	// counts must sum to the trailer total to prove nothing was
	// dropped.
	sc.index = make([]indexEntry, blockCount)
	var sum uint64
	prev := uint64(segHeaderSize)
	for i := range sc.index {
		b := idx[i*indexEntrySize:]
		e := indexEntry{
			offset:  binary.LittleEndian.Uint64(b[0:8]),
			count:   binary.LittleEndian.Uint32(b[8:12]),
			minTime: int64(binary.LittleEndian.Uint64(b[12:20])),
			maxTime: int64(binary.LittleEndian.Uint64(b[20:28])),
		}
		if e.count == 0 {
			return nil, fmt.Errorf("block %d: empty block in index", i)
		}
		if i == 0 && e.offset != segHeaderSize {
			return nil, fmt.Errorf("block 0: offset %d, want %d", e.offset, segHeaderSize)
		}
		if i > 0 && e.offset <= prev {
			return nil, fmt.Errorf("block %d: offset %d does not advance past %d", i, e.offset, prev)
		}
		if e.offset+blockHeaderSize > indexOff {
			return nil, fmt.Errorf("block %d: offset %d beyond index", i, e.offset)
		}
		prev = e.offset
		sum += uint64(e.count)
		sc.index[i] = e
	}
	if sum != sc.total {
		return nil, fmt.Errorf("index counts sum to %d, trailer says %d", sum, sc.total)
	}
	if info != nil {
		if int(sc.shard) != info.Shard || int(sc.part) != info.Part {
			return nil, fmt.Errorf("segment is (shard %d, part %d), manifest says (shard %d, part %d)",
				sc.shard, sc.part, info.Shard, info.Part)
		}
		if sc.total != info.Requests {
			return nil, fmt.Errorf("segment holds %d requests, manifest says %d", sc.total, info.Requests)
		}
		if sc.total > 0 && (sc.minTime != info.MinTime || sc.maxTime != info.MaxTime) {
			return nil, fmt.Errorf("segment time span [%d,%d], manifest says [%d,%d]",
				sc.minTime, sc.maxTime, info.MinTime, info.MaxTime)
		}
	}
	return sc, nil
}

// read returns the n bytes at off, read into the cursor's scratch
// buffer; the slice is valid until the next read.
func (sc *segCursor) read(off int64, n int) ([]byte, error) {
	if off < 0 || n < 0 || off+int64(n) > sc.size {
		return nil, fmt.Errorf("segment read [%d,+%d) beyond size %d", off, n, sc.size)
	}
	if cap(sc.buf) < n {
		sc.buf = make([]byte, n)
	}
	b := sc.buf[:n]
	if got, err := sc.r.ReadAt(b, off); got < n {
		return nil, err
	}
	return b, nil
}

// blockExtent returns block i's [start, end) byte range in the file.
func (sc *segCursor) blockExtent(i int) (int64, int64) {
	start := int64(sc.index[i].offset)
	end := sc.indexOff
	if i+1 < len(sc.index) {
		end = int64(sc.index[i+1].offset)
	}
	return start, end
}

func (sc *segCursor) loadBlock() error {
	e := sc.index[sc.blockIdx]
	start, end := sc.blockExtent(sc.blockIdx)
	if end-start < blockHeaderSize {
		return fmt.Errorf("block %d: extent %d bytes is below header size", sc.blockIdx, end-start)
	}
	blk, err := sc.read(start, int(end-start))
	if err != nil {
		return err
	}
	if count := binary.LittleEndian.Uint32(blk[0:4]); count != e.count {
		return fmt.Errorf("block %d: header count %d, index says %d", sc.blockIdx, count, e.count)
	}
	n, err := sc.decodeBlock(blk)
	if err != nil {
		return err
	}
	if sc.times[0] != e.minTime || sc.times[n-1] != e.maxTime {
		return fmt.Errorf("block %d: time span [%d,%d], index says [%d,%d]",
			sc.blockIdx, sc.times[0], sc.times[n-1], e.minTime, e.maxTime)
	}
	sc.blockIdx++
	return nil
}

// decodeBlock checks block blk (header and payload) and decodes it into
// the cursor's columns, which then hold its n records: the payload
// length and CRC-32C must match the header, every column must decode,
// and time and seq must continue from the previous block.
func (sc *segCursor) decodeBlock(blk []byte) (n int, err error) {
	count := binary.LittleEndian.Uint32(blk[0:4])
	payloadLen := binary.LittleEndian.Uint32(blk[4:8])
	crc := binary.LittleEndian.Uint32(blk[8:12])
	p := blk[blockHeaderSize:]
	if int(payloadLen) != len(p) {
		return 0, fmt.Errorf("block %d: payload length %d, extent allows %d", sc.blockIdx, payloadLen, len(p))
	}
	if crc32.Checksum(p, castagnoli) != crc {
		return 0, fmt.Errorf("block %d: payload checksum mismatch", sc.blockIdx)
	}
	// Every record takes at least one byte in each of its video, start
	// and length columns, so a count beyond that is corrupt, whatever
	// the CRC says, and must not size the columns.
	if count == 0 || uint64(count)*3 > uint64(len(p)) {
		return 0, fmt.Errorf("block %d: count %d does not fit a %d-byte payload", sc.blockIdx, count, len(p))
	}
	n = int(count)
	if cap(sc.times) < n {
		sc.times = make([]int64, n)
		sc.seqs = make([]uint64, n)
		sc.videos = make([]uint64, n)
		sc.starts = make([]int64, n)
		sc.lengths = make([]int64, n)
		sc.kinds = make([]Kind, n)
	}
	sc.times = sc.times[:n]
	sc.seqs = sc.seqs[:n]
	sc.videos = sc.videos[:n]
	sc.starts = sc.starts[:n]
	sc.lengths = sc.lengths[:n]
	sc.kinds = sc.kinds[:n]
	off := 0
	var v uint64
	if v, off, err = uvarintAt(p, off); err != nil || v > math.MaxInt64 {
		return 0, sc.blockErr("base time", err)
	}
	sc.times[0] = int64(v)
	if v, off, err = uvarintAt(p, off); err != nil {
		return 0, sc.blockErr("base seq", err)
	}
	sc.seqs[0] = v
	for i := 1; i < n; i++ {
		if v, off, err = uvarintAt(p, off); err != nil {
			return 0, sc.blockErr("time delta", err)
		}
		t := sc.times[i-1] + int64(v)
		if v > math.MaxInt64 || t < sc.times[i-1] {
			return 0, sc.blockErr("time delta", errors.New("overflow"))
		}
		sc.times[i] = t
	}
	for i := 1; i < n; i++ {
		if v, off, err = uvarintAt(p, off); err != nil {
			return 0, sc.blockErr("seq delta", err)
		}
		s := sc.seqs[i-1] + v
		if v == 0 || s < sc.seqs[i-1] {
			return 0, sc.blockErr("seq delta", errors.New("not strictly increasing"))
		}
		sc.seqs[i] = s
	}
	for i := 0; i < n; i++ {
		if v, off, err = uvarintAt(p, off); err != nil {
			return 0, sc.blockErr("video", err)
		}
		sc.videos[i] = v
	}
	for i := 0; i < n; i++ {
		if v, off, err = uvarintAt(p, off); err != nil || v > math.MaxInt64 {
			return 0, sc.blockErr("range start", err)
		}
		sc.starts[i] = int64(v)
	}
	for i := 0; i < n; i++ {
		if v, off, err = uvarintAt(p, off); err != nil || v > math.MaxInt64 {
			return 0, sc.blockErr("range length", err)
		}
		l := int64(v)
		if sc.starts[i]+l < sc.starts[i] {
			return 0, sc.blockErr("range length", errors.New("overflow"))
		}
		sc.lengths[i] = l
	}
	for i := 0; i < n; i++ {
		if sc.version == 1 {
			sc.kinds[i] = KindRequest
			continue
		}
		if v, off, err = uvarintAt(p, off); err != nil || v >= uint64(numKinds) {
			return 0, sc.blockErr("kind", err)
		}
		sc.kinds[i] = Kind(v)
	}
	if off != len(p) {
		return 0, fmt.Errorf("block %d: %d trailing payload bytes", sc.blockIdx, len(p)-off)
	}
	if sc.started {
		if sc.times[0] < sc.prevTime {
			return 0, fmt.Errorf("block %d: time %d regresses below %d", sc.blockIdx, sc.times[0], sc.prevTime)
		}
		if sc.seqs[0] <= sc.prevSeq {
			return 0, fmt.Errorf("block %d: seq %d does not advance past %d", sc.blockIdx, sc.seqs[0], sc.prevSeq)
		}
	}
	sc.started = true
	sc.prevTime = sc.times[n-1]
	sc.prevSeq = sc.seqs[n-1]
	sc.pos, sc.n = 0, n
	return n, nil
}

func (sc *segCursor) blockErr(what string, err error) error {
	if err == nil {
		err = errors.New("value out of range")
	}
	return fmt.Errorf("block %d: decoding %s: %w", sc.blockIdx, what, err)
}

// Next implements Cursor.
func (sc *segCursor) Next(req *Request) (bool, error) {
	if sc.err != nil {
		return false, sc.err
	}
	for sc.pos >= sc.n {
		if sc.blockIdx >= len(sc.index) {
			return false, nil
		}
		if err := sc.loadBlock(); err != nil {
			sc.err = err
			return false, err
		}
	}
	i := sc.pos
	sc.pos++
	req.Time = sc.times[i]
	req.Video = chunk.VideoID(sc.videos[i])
	req.Start = sc.starts[i]
	req.End = sc.starts[i] + sc.lengths[i]
	sc.lastSeq = sc.seqs[i]
	sc.lastKind = sc.kinds[i]
	return true, nil
}

// Kind implements EventCursor.
func (sc *segCursor) Kind() Kind { return sc.lastKind }

// Close implements Cursor.
func (sc *segCursor) Close() error {
	if c, ok := sc.r.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// Requests returns the segment's total request count (from its
// validated trailer).
func (sc *segCursor) Requests() uint64 { return sc.total }

func uvarintAt(p []byte, off int) (uint64, int, error) {
	v, n := binary.Uvarint(p[off:])
	if n <= 0 {
		return 0, 0, errors.New("bad uvarint")
	}
	return v, off + n, nil
}

// ---------- Columnar merge ----------

// colStream is one segment feeding a columnar merge.
type colStream struct {
	sc     *segCursor
	req    Request
	seq    uint64
	kind   Kind
	loaded bool
	done   bool
}

// colMerge merges segment cursors by (Time, Part, Seq). Within a part
// the sequence numbers are the exact write order, and across parts the
// part index breaks timestamp ties, so the merged order is a strict
// total order that every reader reconstructs identically.
type colMerge struct {
	streams []colStream
	kind    Kind // of the record the last Next returned
	err     error
}

func (m *colMerge) Next(req *Request) (bool, error) {
	if m.err != nil {
		return false, m.err
	}
	best := -1
	for i := range m.streams {
		s := &m.streams[i]
		if !s.loaded && !s.done {
			ok, err := s.sc.Next(&s.req)
			if err != nil {
				m.err = err
				return false, err
			}
			if !ok {
				s.done = true
				continue
			}
			s.seq = s.sc.lastSeq
			s.kind = s.sc.lastKind
			s.loaded = true
		}
		if !s.loaded {
			continue
		}
		if best < 0 || colLess(s, &m.streams[best]) {
			best = i
		}
	}
	if best < 0 {
		return false, nil
	}
	*req = m.streams[best].req
	m.kind = m.streams[best].kind
	m.streams[best].loaded = false
	return true, nil
}

// Kind implements EventCursor.
func (m *colMerge) Kind() Kind { return m.kind }

func colLess(a, b *colStream) bool {
	if a.req.Time != b.req.Time {
		return a.req.Time < b.req.Time
	}
	if a.sc.part != b.sc.part {
		return a.sc.part < b.sc.part
	}
	return a.seq < b.seq
}

func (m *colMerge) Close() error {
	var errs []error
	for i := range m.streams {
		if err := m.streams[i].sc.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

var (
	_ Source      = (*Dir)(nil)
	_ EventCursor = (*segCursor)(nil)
	_ EventCursor = (*colMerge)(nil)
)
