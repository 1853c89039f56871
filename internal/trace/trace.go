// Package trace defines the request-log model replayed through the
// caches, and the two ways a trace is stored on disk.
//
// A request (the paper's R, Section 4) carries an arrival timestamp
// R.t, a video ID R.v and an inclusive byte range [R.b0, R.b1]. The
// server must fully serve or fully redirect the range.
//
// A trace is either
//
//   - a text file, one "t video b0 b1" line per request: diffable and
//     easy to produce from foreign logs, or
//   - a columnar directory (columnar.go): sharded, delta-encoded and
//     CRC-checked, for month-scale traces that never fit in memory.
//
// Open tells them apart, and both are read through one iterator,
// Cursor.
package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"videocdn/internal/chunk"
)

// Request is one video request arriving at a cache server.
type Request struct {
	// Time is the arrival timestamp in seconds relative to the start
	// of the trace. The algorithms only ever use time differences, so
	// the origin is arbitrary.
	Time int64
	// Video identifies the requested video file.
	Video chunk.VideoID
	// Start and End delimit the inclusive requested byte range.
	Start int64
	End   int64
}

// Range returns the request's byte range.
func (r Request) Range() chunk.ByteRange { return chunk.ByteRange{Start: r.Start, End: r.End} }

// Bytes is the requested byte length (b1 - b0 + 1).
func (r Request) Bytes() int64 { return r.End - r.Start + 1 }

// ChunkRange returns the inclusive chunk-index range for chunk size k.
func (r Request) ChunkRange(k int64) (c0, c1 uint32) { return r.Range().Range(k) }

// Chunks returns the chunk IDs spanned by the request for chunk size k.
func (r Request) Chunks(k int64) []chunk.ID { return chunk.Chunks(r.Video, r.Range(), k) }

// Validate reports whether the request is well-formed.
func (r Request) Validate() error {
	if r.Time < 0 {
		return fmt.Errorf("trace: negative timestamp %d", r.Time)
	}
	if r.Start < 0 || r.End < r.Start {
		return fmt.Errorf("trace: invalid byte range [%d,%d]", r.Start, r.End)
	}
	return nil
}

// Writer serializes requests. Close (or Flush) must be called to drain
// buffers.
type Writer interface {
	Write(Request) error
	Flush() error
}

// ---------- Text format ----------

// TextWriter writes one request per line: "t video b0 b1".
type TextWriter struct {
	w *bufio.Writer
}

// NewTextWriter wraps w in a buffered text-format trace writer.
func NewTextWriter(w io.Writer) *TextWriter {
	return &TextWriter{w: bufio.NewWriterSize(w, 1<<16)}
}

// Write appends one request line.
func (tw *TextWriter) Write(r Request) error {
	if err := r.Validate(); err != nil {
		return err
	}
	_, err := fmt.Fprintf(tw.w, "%d %d %d %d\n", r.Time, r.Video, r.Start, r.End)
	return err
}

// Flush drains the underlying buffer.
func (tw *TextWriter) Flush() error { return tw.w.Flush() }

// maxLineBytes caps one text-format line. A request line is four
// decimal integers — well under a hundred bytes — so the cap only
// bounds memory on corrupt or hostile input.
const maxLineBytes = 1 << 20

// TextReader is a Cursor over the text format. It skips blank lines
// and lines beginning with '#', and reports every parse failure —
// including a line longer than the 1 MiB cap — with the 1-based line
// number it occurred on. Unlike the in-memory and columnar cursors it
// allocates per line; Open reads a text file into memory once.
type TextReader struct {
	s    *bufio.Scanner
	line int
}

// NewTextReader wraps r in a text-format cursor.
func NewTextReader(r io.Reader) *TextReader {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 1<<16), maxLineBytes)
	return &TextReader{s: s}
}

// Next implements Cursor.
func (tr *TextReader) Next(req *Request) (bool, error) {
	for tr.s.Scan() {
		tr.line++
		line := strings.TrimSpace(tr.s.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 4 {
			return false, fmt.Errorf("trace: line %d: want 4 fields, got %d", tr.line, len(f))
		}
		var vals [4]int64
		for i, s := range f {
			v, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return false, fmt.Errorf("trace: line %d field %d: %v", tr.line, i+1, err)
			}
			vals[i] = v
		}
		if vals[1] < 0 {
			return false, fmt.Errorf("trace: line %d: negative video ID", tr.line)
		}
		r := Request{Time: vals[0], Video: chunk.VideoID(vals[1]), Start: vals[2], End: vals[3]}
		if err := r.Validate(); err != nil {
			return false, fmt.Errorf("trace: line %d: %w", tr.line, err)
		}
		*req = r
		return true, nil
	}
	if err := tr.s.Err(); err != nil {
		// The scanner fails on the line after the last one delivered.
		if errors.Is(err, bufio.ErrTooLong) {
			return false, fmt.Errorf("trace: line %d: line exceeds the %d-byte limit: %w", tr.line+1, maxLineBytes, err)
		}
		return false, fmt.Errorf("trace: line %d: %w", tr.line+1, err)
	}
	return false, nil
}

// Close implements Cursor. The reader does not own its input.
func (tr *TextReader) Close() error { return nil }

// ReadText parses a whole text-format trace into memory.
func ReadText(r io.Reader) ([]Request, error) { return collect(NewTextReader(r), 0) }

// ---------- Helpers ----------

// WriteAll writes all requests and flushes.
func WriteAll(w Writer, reqs []Request) error {
	for _, r := range reqs {
		if err := w.Write(r); err != nil {
			return err
		}
	}
	return w.Flush()
}

// Window returns the requests with Time in [from, to).
func Window(reqs []Request, from, to int64) []Request {
	var out []Request
	for _, r := range reqs {
		if r.Time >= from && r.Time < to {
			out = append(out, r)
		}
	}
	return out
}

// FilterVideos keeps only requests for videos in the keep set.
func FilterVideos(reqs []Request, keep map[chunk.VideoID]bool) []Request {
	var out []Request
	for _, r := range reqs {
		if keep[r.Video] {
			out = append(out, r)
		}
	}
	return out
}

// CapSize truncates every request's byte range to maxBytes of the
// video, dropping requests that start at or beyond the cap. The paper
// caps files at 20 MB for the Optimal experiment (Section 9.1).
func CapSize(reqs []Request, maxBytes int64) []Request {
	var out []Request
	for _, r := range reqs {
		if r.Start >= maxBytes {
			continue
		}
		if r.End >= maxBytes {
			r.End = maxBytes - 1
		}
		out = append(out, r)
	}
	return out
}

// Merge combines multiple time-ordered traces into one time-ordered
// stream (k-way merge, stable across inputs: ties keep the input
// order). It is how several regional request streams are combined
// into the view a shared parent cache would see. From splitMergeMin
// requests on, the output is cut into runtime.GOMAXPROCS(0) pieces
// merged in parallel (mergeSplit); the result is the same.
func Merge(traces ...[]Request) []Request {
	total := 0
	for _, t := range traces {
		total += len(t)
	}
	out := make([]Request, total)
	pieces := 1
	if total >= splitMergeMin {
		pieces = runtime.GOMAXPROCS(0)
	}
	mergeSplit(out, pieces, traces)
	return out
}

// splitMergeMin is the output size from which Merge splits its work:
// below it a goroutine costs more than the piece it would merge.
const splitMergeMin = 1 << 15

// mergeSplit merges traces into out, which holds exactly their
// requests, as up to pieces independent merges. The cut times are
// evenly spaced requests of the longest input. Each input's requests
// earlier than a cut time precede, in the merged order, every request
// at or after it, so cutting every input at the same time (a binary
// search each) splits out into disjoint ranges that mergeInto fills
// on their own goroutines, with the order and ties of one merge.
func mergeSplit(out []Request, pieces int, traces [][]Request) {
	var cuts []Request
	for _, t := range traces {
		if len(t) > len(cuts) {
			cuts = t
		}
	}
	if pieces <= 1 || len(cuts) < pieces {
		mergeInto(out, traces)
		return
	}
	// lo[j] is where input j's part of the next piece starts, and at
	// is where that piece starts in out.
	lo := make([]int, len(traces))
	at := 0
	var wg sync.WaitGroup
	for p := 1; p <= pieces; p++ {
		part := make([][]Request, len(traces))
		n := 0
		for j, t := range traces {
			rest := t[lo[j]:]
			if p < pieces {
				c := cuts[p*len(cuts)/pieces].Time
				rest = rest[:sort.Search(len(rest), func(i int) bool { return rest[i].Time >= c })]
			}
			part[j] = rest
			lo[j] += len(rest)
			n += len(rest)
		}
		wg.Add(1)
		go func(dst []Request) {
			defer wg.Done()
			mergeInto(dst, part)
		}(out[at : at+n])
		at += n
	}
	wg.Wait()
}

// mergeInto merges traces into out, which holds exactly their
// requests, on the calling goroutine.
func mergeInto(out []Request, traces [][]Request) {
	// heads[j] is the time of rest[j][0]. An input leaves both arrays
	// when it runs out, and the rest keep their order, so the scan for
	// the earliest head reads one small array and a tie still goes to
	// the lowest input index.
	rest := make([][]Request, 0, len(traces))
	heads := make([]int64, 0, len(traces))
	for _, t := range traces {
		if len(t) > 0 {
			rest = append(rest, t)
			heads = append(heads, t[0].Time)
		}
	}
	for k := range out {
		best, bestTime := 0, heads[0]
		for j, h := range heads[1:] {
			if h < bestTime {
				best, bestTime = j+1, h
			}
		}
		t := rest[best]
		out[k] = t[0]
		if t = t[1:]; len(t) > 0 {
			rest[best], heads[best] = t, t[0].Time
		} else {
			rest = append(rest[:best], rest[best+1:]...)
			heads = append(heads[:best], heads[best+1:]...)
		}
	}
}

// OffsetVideos returns a copy of the trace with every video ID shifted
// by offset — namespacing per-region ID spaces before Merge so videos
// from different generators cannot alias.
func OffsetVideos(reqs []Request, offset chunk.VideoID) []Request {
	out := make([]Request, len(reqs))
	for i, r := range reqs {
		r.Video += offset
		out[i] = r
	}
	return out
}

// AlignToChunks widens every request's byte range to whole chunk
// boundaries for chunk size k, so that requested bytes equal requested
// chunks × k exactly. The Optimal cache's IP accounts in chunk units
// (Section 7); aligning the trace makes byte-accounted and
// chunk-accounted efficiencies directly comparable.
func AlignToChunks(reqs []Request, k int64) []Request {
	out := make([]Request, len(reqs))
	for i, r := range reqs {
		c0, c1 := r.ChunkRange(k)
		out[i] = Request{
			Time:  r.Time,
			Video: r.Video,
			Start: int64(c0) * k,
			End:   int64(c1+1)*k - 1,
		}
	}
	return out
}

// HitCount tallies requests per video.
func HitCount(reqs []Request) map[chunk.VideoID]int {
	m := make(map[chunk.VideoID]int)
	for _, r := range reqs {
		m[r.Video]++
	}
	return m
}

// UniqueChunks returns the number of distinct chunks referenced by the
// trace at chunk size k.
func UniqueChunks(reqs []Request, k int64) int {
	seen := make(map[uint64]struct{})
	for _, r := range reqs {
		c0, c1 := r.ChunkRange(k)
		for c := c0; c <= c1; c++ {
			seen[(chunk.ID{Video: r.Video, Index: c}).Key()] = struct{}{}
		}
	}
	return len(seen)
}
