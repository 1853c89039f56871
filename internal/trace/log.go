package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Kind says which cache call a record of a columnar directory
// re-issues. A trace written by tracegen holds requests only; the
// request log of a live edge (Log) holds every call that changed its
// policy's state, in the order the policy saw them.
type Kind uint8

const (
	// KindRequest is HandleRequest(r).
	KindRequest Kind = iota
	// KindPrefetch is PrefetchNext(r.Video, r.End+1, r.Time): the
	// record's range is the whole video, so its length is the size the
	// call was given.
	KindPrefetch
	// KindForget is Forget of chunk r.Start of video r.Video (Start and
	// End both hold the chunk index).
	KindForget
	numKinds
)

// EventCursor is a Cursor over kinded records: Kind reports the kind
// of the record the last Next returned. The cursors of a Dir are
// EventCursors; every record of a version-1 segment is a KindRequest.
type EventCursor interface {
	Cursor
	Kind() Kind
}

// LogBlockRecords is the block size of a request log: small, so a
// crashed edge loses at most the block it was filling.
const LogBlockRecords = 256

// logBacklog is how many full blocks may wait for the writer before
// Append blocks: a few, so a slow write does not stall decisions, and
// no more, since a log never drops a record and a disk that stays
// behind must slow the decisions down.
const logBacklog = 4

type logRecord struct {
	r Request
	k Kind
}

// Log appends kinded records to a columnar trace directory, one new
// part per OpenLog. Append copies a record into the current block
// buffer; a full buffer goes to the log's writer goroutine, which
// encodes and writes it, so the caller's lock is never held across
// disk I/O. Close writes the last block, finalizes the part and lists
// it in the manifest. A part a crash left unfinished is repaired by the
// next OpenLog.
type Log struct {
	dir  string
	part int
	man  Manifest // the finished parts; Close adds this one
	pw   *PartWriter

	cur  []logRecord
	full chan []logRecord
	done chan struct{}
	err  error // the writer's first error, read after done
}

// OpenLog opens the request log in dir, creating the directory if
// needed. It repairs every part a crash left unfinished — keeping each
// whole block up to the first short or corrupt one — rewrites the
// manifest over the finished parts, and starts a new part after them.
// The records already in dir replay through OpenDir(dir) until Close
// lists the new part.
func OpenLog(dir string) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	man, err := recoverParts(dir)
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", dir, err)
	}
	part := man.Parts
	man.Parts = part + 1
	if err := writeManifest(dir, man); err != nil {
		return nil, err
	}
	sw, err := newSegWriter(filepath.Join(dir, segFileName(0, part)), 0, part, LogBlockRecords)
	if err != nil {
		return nil, err
	}
	l := &Log{
		dir: dir, part: part, man: man, pw: &PartWriter{seg: sw},
		cur:  make([]logRecord, 0, LogBlockRecords),
		full: make(chan []logRecord, logBacklog),
		done: make(chan struct{}),
	}
	go l.write()
	return l, nil
}

// LastTime returns the time of the last record the log held when it
// was opened; ok is false when it held none.
func (l *Log) LastTime() (t int64, ok bool) { return l.man.MaxTime, l.man.Requests > 0 }

// Append logs one record. Records must arrive in non-decreasing time
// order, at or after LastTime. Not safe for concurrent use: the caller
// serializes, typically under the lock its records are decided under,
// so that log order is decision order. It blocks only while logBacklog
// full blocks wait for the writer.
func (l *Log) Append(k Kind, r Request) {
	l.cur = append(l.cur, logRecord{r: r, k: k})
	if len(l.cur) == LogBlockRecords {
		l.full <- l.cur
		l.cur = make([]logRecord, 0, LogBlockRecords)
	}
}

// write is the log's writer goroutine. After its first error it keeps
// draining, so Append never blocks on a dead writer; Close reports the
// error.
func (l *Log) write() {
	defer close(l.done)
	for recs := range l.full {
		for _, rec := range recs {
			if l.err == nil {
				l.err = l.pw.WriteKind(rec.k, rec.r)
			}
		}
	}
}

// Close writes the records still buffered, finalizes the part and
// lists it in the manifest. The log takes no Append after Close.
func (l *Log) Close() error {
	if len(l.cur) > 0 {
		l.full <- l.cur
	}
	l.cur = nil
	close(l.full)
	<-l.done
	if l.err != nil {
		l.pw.seg.f.Close()
		return fmt.Errorf("trace: log part %d: %w", l.part, l.err)
	}
	if err := l.pw.seg.finish(); err != nil {
		return fmt.Errorf("trace: finalizing %s: %w", segFileName(0, l.part), err)
	}
	l.man.addSegment(l.pw.seg.info(l.part))
	return writeManifest(l.dir, l.man)
}

// recoverParts lists the log parts in dir, repairing each one a crash
// left without its trailer, and returns their manifest with Parts one
// past the highest part.
func recoverParts(dir string) (Manifest, error) {
	man := Manifest{Format: ManifestFormat, Version: manifestVersion, ShardCount: 1, BlockRequests: LogBlockRecords}
	paths, err := filepath.Glob(filepath.Join(dir, "shard-*-part-*.seg"))
	if err != nil {
		return man, err
	}
	var segs []SegmentInfo
	for _, path := range paths {
		var shard, part int
		name := filepath.Base(path)
		if _, err := fmt.Sscanf(name, "shard-%d-part-%d.seg", &shard, &part); err != nil || segFileName(shard, part) != name {
			return man, fmt.Errorf("unexpected segment file %s", name)
		}
		if shard != 0 {
			return man, fmt.Errorf("%s: a request log has one shard", name)
		}
		sc, err := openSeg(path, nil)
		if err != nil {
			if err := repairSeg(path, part); err != nil {
				return man, fmt.Errorf("repairing %s: %w", name, err)
			}
			if sc, err = openSeg(path, nil); err != nil {
				return man, err
			}
		}
		sc.Close()
		if int(sc.part) != part {
			return man, fmt.Errorf("%s: header says part %d", name, sc.part)
		}
		segs = append(segs, SegmentInfo{File: name, Part: part, Requests: sc.total, MinTime: sc.minTime, MaxTime: sc.maxTime})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].Part < segs[j].Part })
	for _, seg := range segs {
		man.addSegment(seg)
		man.Parts = seg.Part + 1
	}
	return man, nil
}

// repairSeg finalizes the segment file at path that a crashed writer
// left without index and trailer: it keeps every whole block up to the
// first short or corrupt one, cuts the file after it and writes the
// index and trailer of what is kept. A file whose header is torn
// becomes an empty segment of part.
func repairSeg(path string, part int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	sw := scanSeg(data)
	if sw == nil {
		if sw, err = newSegWriter(path, 0, part, LogBlockRecords); err != nil {
			return err
		}
		return sw.finish()
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if err := f.Truncate(int64(sw.off)); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Seek(int64(sw.off), io.SeekStart); err != nil {
		f.Close()
		return err
	}
	sw.f = f
	return sw.finish()
}

// scanSeg walks the blocks of segment bytes data from the header on
// and returns a writer that holds the index of every whole block up to
// the first short or corrupt one and is positioned after it: finish,
// over data[:off], writes the repaired segment. It returns nil when the
// header itself is torn.
func scanSeg(data []byte) *segWriter {
	sc := &segCursor{version: 2}
	switch {
	case len(data) >= segHeaderSize && [8]byte(data[0:8]) == segMagic:
	case len(data) >= segHeaderSize && [8]byte(data[0:8]) == segMagicV1:
		sc.version = 1
	default:
		return nil
	}
	sw := &segWriter{off: segHeaderSize}
	for off := segHeaderSize; off+blockHeaderSize <= len(data); {
		end := off + blockHeaderSize + int(binary.LittleEndian.Uint32(data[off+4:off+8]))
		if end > len(data) || end < off {
			break
		}
		n, err := sc.decodeBlock(data[off:end])
		if err != nil {
			break
		}
		first, last := sc.times[0], sc.times[n-1]
		sw.index = append(sw.index, indexEntry{offset: uint64(off), count: uint32(n), minTime: first, maxTime: last})
		if sw.requests == 0 {
			sw.minTime = first
		}
		sw.maxTime = last
		sw.requests += uint64(n)
		sw.off = uint64(end)
		off = end
	}
	return sw
}
