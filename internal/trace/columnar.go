package trace

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"videocdn/internal/chunk"
)

// Columnar on-disk trace format: a trace is a directory of per-shard
// segment files plus a manifest. It exists so that a 100M+ request
// replay never holds the trace in memory — writers stream blocks out,
// readers stream blocks in, and peak RSS is bounded by block buffers
// regardless of trace length.
//
// Layout of one segment file (all integers little-endian):
//
//	header (16 B):  magic "VCTSEG1\n" | shard uint32 | part uint32
//	blocks:         count uint32 | payloadLen uint32 | crc32c uint32 |
//	                payload (see below)
//	index:          per block: offset uint64 | count uint32 |
//	                minTime int64 | maxTime int64          (28 B each)
//	trailer (48 B): indexOff uint64 | blockCount uint32 |
//	                requests uint64 | minTime int64 | maxTime int64 |
//	                indexCRC uint32 | magic "VCTEND1\n"
//
// A block payload groups up to BlockRequests requests by column, every
// value a uvarint: base time, base seq, count-1 time deltas (>= 0),
// count-1 seq deltas (>= 1), count video IDs, count range starts,
// count range lengths (End-Start). Delta-encoded timestamps and
// sequence numbers make a request cost a few bytes; the per-block
// CRC-32C plus the counted, CRC'd footer index mean truncation or
// corruption anywhere in the file is detected rather than silently
// dropping requests.
//
// Sharding and the sequence column. Requests are routed to segment
// files by chunk.ShardOf(video, shards) — the same placement function
// the sharded cache group uses — so the parallel replay engine can
// hand each worker its shard's cursor directly. Each writer "part"
// (one per generation worker) stamps its requests with a monotonically
// increasing sequence number shared across that part's shards. Sorting
// by (Time, Part, Seq) therefore reconstructs the exact order the
// requests were written in, even across timestamp ties, which is what
// makes streaming replay bit-identical to in-memory replay.
const (
	// DefaultBlockRequests is the number of requests per block when
	// DirConfig.BlockRequests is zero. At ~10 bytes per encoded request
	// a block is ~80 KB on disk and five 64 KB column buffers in RAM.
	DefaultBlockRequests = 8192

	// ManifestName is the manifest file inside a trace directory.
	ManifestName = "manifest.json"

	// ManifestFormat is the value of the manifest "format" field.
	ManifestFormat = "videocdn-columnar"

	segHeaderSize   = 16
	blockHeaderSize = 12
	indexEntrySize  = 28
	segTrailerSize  = 48
)

var (
	segMagic = [8]byte{'V', 'C', 'T', 'S', 'E', 'G', '1', '\n'}
	endMagic = [8]byte{'V', 'C', 'T', 'E', 'N', 'D', '1', '\n'}
)

// castagnoli is the CRC-32C table used for block and index checksums
// (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// DirConfig parameterizes a columnar trace directory.
type DirConfig struct {
	// Shards is the number of per-shard segment streams (a positive
	// power of two). Replaying through a shard.Group of the same count
	// needs no partitioning at all. Defaults to 1.
	Shards int
	// Parts is the number of independent writer streams (one per
	// generation worker). Defaults to 1.
	Parts int
	// BlockRequests is the number of requests per column block.
	// Defaults to DefaultBlockRequests.
	BlockRequests int
}

func (c *DirConfig) normalize() error {
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Parts == 0 {
		c.Parts = 1
	}
	if c.BlockRequests == 0 {
		c.BlockRequests = DefaultBlockRequests
	}
	if c.Shards < 0 || c.Shards&(c.Shards-1) != 0 {
		return fmt.Errorf("trace: shard count must be a positive power of two, got %d", c.Shards)
	}
	if c.Parts < 0 {
		return fmt.Errorf("trace: negative part count %d", c.Parts)
	}
	if c.BlockRequests < 0 {
		return fmt.Errorf("trace: negative block size %d", c.BlockRequests)
	}
	return nil
}

// Manifest describes a columnar trace directory. It is written as
// ManifestName when the directory is finalized.
type Manifest struct {
	Format        string        `json:"format"`
	Version       int           `json:"version"`
	Shards        int           `json:"shards"`
	Parts         int           `json:"parts"`
	BlockRequests int           `json:"block_requests"`
	Requests      uint64        `json:"requests"`
	MinTime       int64         `json:"min_time"`
	MaxTime       int64         `json:"max_time"`
	Segments      []SegmentInfo `json:"segments"`
}

// SegmentInfo describes one segment file within a trace directory.
type SegmentInfo struct {
	File     string `json:"file"`
	Shard    int    `json:"shard"`
	Part     int    `json:"part"`
	Requests uint64 `json:"requests"`
	MinTime  int64  `json:"min_time"`
	MaxTime  int64  `json:"max_time"`
}

// segFileName names the segment file for (shard, part).
func segFileName(shard, part int) string {
	return fmt.Sprintf("shard-%04d-part-%02d.seg", shard, part)
}

// ---------- Segment writer ----------

// segWriter streams one (shard, part) segment file: it buffers one
// block of columns, encodes and writes the block when full, and keeps
// only the (small) footer index in memory until finish.
type segWriter struct {
	f   *os.File
	buf []byte // pending encoded bytes, flushed to f when large
	off uint64 // file offset of the next block

	blockRequests int
	times         []int64
	seqs          []uint64
	videos        []uint64
	starts        []int64
	lengths       []int64

	index    []indexEntry
	requests uint64
	minTime  int64
	maxTime  int64

	scratch []byte // block payload encode buffer
}

type indexEntry struct {
	offset  uint64
	count   uint32
	minTime int64
	maxTime int64
}

func newSegWriter(path string, shard, part, blockRequests int) (*segWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	sw := &segWriter{
		f:             f,
		blockRequests: blockRequests,
		times:         make([]int64, 0, blockRequests),
		seqs:          make([]uint64, 0, blockRequests),
		videos:        make([]uint64, 0, blockRequests),
		starts:        make([]int64, 0, blockRequests),
		lengths:       make([]int64, 0, blockRequests),
		buf:           make([]byte, 0, 1<<16),
	}
	var hdr [segHeaderSize]byte
	copy(hdr[0:8], segMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(shard))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(part))
	sw.buf = append(sw.buf, hdr[:]...)
	sw.off = segHeaderSize
	return sw, nil
}

func (sw *segWriter) add(r Request, seq uint64) error {
	if sw.requests == 0 {
		sw.minTime = r.Time
	}
	sw.maxTime = r.Time
	sw.requests++
	sw.times = append(sw.times, r.Time)
	sw.seqs = append(sw.seqs, seq)
	sw.videos = append(sw.videos, uint64(r.Video))
	sw.starts = append(sw.starts, r.Start)
	sw.lengths = append(sw.lengths, r.End-r.Start)
	if len(sw.times) >= sw.blockRequests {
		return sw.flushBlock()
	}
	return nil
}

// write appends p to the in-memory buffer, spilling to disk when it
// exceeds its chunk size.
func (sw *segWriter) write(p []byte) error {
	sw.buf = append(sw.buf, p...)
	if len(sw.buf) >= 1<<16 {
		if _, err := sw.f.Write(sw.buf); err != nil {
			return err
		}
		sw.buf = sw.buf[:0]
	}
	return nil
}

func (sw *segWriter) flushBlock() error {
	n := len(sw.times)
	if n == 0 {
		return nil
	}
	p := sw.scratch[:0]
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) {
		k := binary.PutUvarint(tmp[:], v)
		p = append(p, tmp[:k]...)
	}
	put(uint64(sw.times[0]))
	put(sw.seqs[0])
	for i := 1; i < n; i++ {
		put(uint64(sw.times[i] - sw.times[i-1]))
	}
	for i := 1; i < n; i++ {
		put(sw.seqs[i] - sw.seqs[i-1])
	}
	for i := 0; i < n; i++ {
		put(sw.videos[i])
	}
	for i := 0; i < n; i++ {
		put(uint64(sw.starts[i]))
	}
	for i := 0; i < n; i++ {
		put(uint64(sw.lengths[i]))
	}
	var hdr [blockHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(n))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(p)))
	binary.LittleEndian.PutUint32(hdr[8:12], crc32.Checksum(p, castagnoli))
	if err := sw.write(hdr[:]); err != nil {
		return err
	}
	if err := sw.write(p); err != nil {
		return err
	}
	sw.index = append(sw.index, indexEntry{
		offset:  sw.off,
		count:   uint32(n),
		minTime: sw.times[0],
		maxTime: sw.times[n-1],
	})
	sw.off += uint64(blockHeaderSize + len(p))
	sw.scratch = p[:0]
	sw.times = sw.times[:0]
	sw.seqs = sw.seqs[:0]
	sw.videos = sw.videos[:0]
	sw.starts = sw.starts[:0]
	sw.lengths = sw.lengths[:0]
	return nil
}

// finish flushes the partial block, writes the footer index and
// trailer, and closes the file.
func (sw *segWriter) finish() error {
	if err := sw.flushBlock(); err != nil {
		sw.f.Close()
		return err
	}
	indexOff := sw.off
	idx := make([]byte, len(sw.index)*indexEntrySize)
	for i, e := range sw.index {
		b := idx[i*indexEntrySize:]
		binary.LittleEndian.PutUint64(b[0:8], e.offset)
		binary.LittleEndian.PutUint32(b[8:12], e.count)
		binary.LittleEndian.PutUint64(b[12:20], uint64(e.minTime))
		binary.LittleEndian.PutUint64(b[20:28], uint64(e.maxTime))
	}
	if err := sw.write(idx); err != nil {
		sw.f.Close()
		return err
	}
	var tr [segTrailerSize]byte
	binary.LittleEndian.PutUint64(tr[0:8], indexOff)
	binary.LittleEndian.PutUint32(tr[8:12], uint32(len(sw.index)))
	binary.LittleEndian.PutUint64(tr[12:20], sw.requests)
	binary.LittleEndian.PutUint64(tr[20:28], uint64(sw.minTime))
	binary.LittleEndian.PutUint64(tr[28:36], uint64(sw.maxTime))
	binary.LittleEndian.PutUint32(tr[36:40], crc32.Checksum(idx, castagnoli))
	copy(tr[40:48], endMagic[:])
	if err := sw.write(tr[:]); err != nil {
		sw.f.Close()
		return err
	}
	if len(sw.buf) > 0 {
		if _, err := sw.f.Write(sw.buf); err != nil {
			sw.f.Close()
			return err
		}
		sw.buf = sw.buf[:0]
	}
	return sw.f.Close()
}

// ---------- Directory writers ----------

// DirParts writes a columnar trace directory through Parts independent
// PartWriter streams. Each part may be driven from its own goroutine
// (a part's files are owned exclusively by that part); Close must be
// called from a single goroutine after all writers have quiesced, and
// finalizes every segment plus the manifest.
type DirParts struct {
	dir    string
	cfg    DirConfig
	parts  []*PartWriter
	closed bool
}

// CreateDirParts creates (or reuses) directory dir and returns a
// multi-part columnar writer for it.
func CreateDirParts(dir string, cfg DirConfig) (*DirParts, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	dp := &DirParts{dir: dir, cfg: cfg, parts: make([]*PartWriter, cfg.Parts)}
	for p := range dp.parts {
		pw := &PartWriter{part: p, segs: make([]*segWriter, cfg.Shards)}
		for s := range pw.segs {
			sw, err := newSegWriter(filepath.Join(dir, segFileName(s, p)), s, p, cfg.BlockRequests)
			if err != nil {
				return nil, err
			}
			pw.segs[s] = sw
		}
		dp.parts[p] = pw
	}
	return dp, nil
}

// Part returns part i's writer.
func (dp *DirParts) Part(i int) *PartWriter { return dp.parts[i] }

// Close finalizes every segment file and writes the manifest
// atomically (tmp + rename), so a crashed or interrupted generation
// never leaves a directory that parses as a complete trace.
func (dp *DirParts) Close() error {
	if dp.closed {
		return fmt.Errorf("trace: directory writer already closed")
	}
	dp.closed = true
	man := Manifest{
		Format:        ManifestFormat,
		Version:       1,
		Shards:        dp.cfg.Shards,
		Parts:         dp.cfg.Parts,
		BlockRequests: dp.cfg.BlockRequests,
	}
	first := true
	for p, pw := range dp.parts {
		for s, sw := range pw.segs {
			if err := sw.finish(); err != nil {
				return fmt.Errorf("trace: finalizing %s: %w", segFileName(s, p), err)
			}
			man.Segments = append(man.Segments, SegmentInfo{
				File:     segFileName(s, p),
				Shard:    s,
				Part:     p,
				Requests: sw.requests,
				MinTime:  sw.minTime,
				MaxTime:  sw.maxTime,
			})
			man.Requests += sw.requests
			if sw.requests > 0 {
				if first || sw.minTime < man.MinTime {
					man.MinTime = sw.minTime
				}
				if first || sw.maxTime > man.MaxTime {
					man.MaxTime = sw.maxTime
				}
				first = false
			}
		}
	}
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dp.dir, ManifestName+".tmp")
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dp.dir, ManifestName))
}

// PartWriter is one independent write stream of a columnar trace
// directory. Requests must arrive in non-decreasing time order within
// the part; the writer routes each to its shard's segment and stamps
// it with the part-local sequence number that lets readers reconstruct
// the exact write order. Not safe for concurrent use; distinct parts
// are independent.
type PartWriter struct {
	part     int
	segs     []*segWriter
	seq      uint64
	lastTime int64
	started  bool
}

// Write routes one request to its shard segment.
func (pw *PartWriter) Write(r Request) error {
	if err := r.Validate(); err != nil {
		return err
	}
	if pw.started && r.Time < pw.lastTime {
		return fmt.Errorf("trace: columnar writer requires non-decreasing time (%d after %d)", r.Time, pw.lastTime)
	}
	pw.started = true
	pw.lastTime = r.Time
	seq := pw.seq
	pw.seq++
	return pw.segs[chunk.ShardOf(r.Video, len(pw.segs))].add(r, seq)
}

// Requests returns how many requests this part has written.
func (pw *PartWriter) Requests() uint64 { return pw.seq }

// DirWriter is the single-part convenience writer: it satisfies the
// Writer interface so code written against it (WriteAll, traceconv)
// streams into a columnar directory unchanged. Flush is a no-op — the columnar
// format is finalized by Close, which writes every segment trailer and
// the manifest.
type DirWriter struct {
	dp *DirParts
}

// CreateDir creates a single-part columnar trace directory writer.
func CreateDir(dir string, cfg DirConfig) (*DirWriter, error) {
	cfg.Parts = 1
	dp, err := CreateDirParts(dir, cfg)
	if err != nil {
		return nil, err
	}
	return &DirWriter{dp: dp}, nil
}

// Write appends one request (non-decreasing time order required).
func (w *DirWriter) Write(r Request) error { return w.dp.Part(0).Write(r) }

// Flush is a no-op; the directory is finalized by Close.
func (w *DirWriter) Flush() error { return nil }

// Close finalizes the directory (segment trailers + manifest).
func (w *DirWriter) Close() error { return w.dp.Close() }

var _ Writer = (*DirWriter)(nil)
