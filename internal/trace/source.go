package trace

import (
	"fmt"
	"os"
)

// Source is a replayable trace: one time-ordered request stream. It is
// the abstraction the replay engines consume, satisfied both by
// in-memory []Request traces (Slice) and by on-disk columnar trace
// directories (OpenDir), so experiment scale is bounded by the trace
// medium, not by RAM.
//
// Contract:
//
//   - Len() is the total request count, or -1 when unknown.
//   - TimeSpan() returns the first and last request timestamps; known
//     is false when the source cannot tell without a full scan.
//   - Cursor() returns a fresh iterator over every request in replay
//     order: non-decreasing time, with timestamp ties in one fixed
//     order that every cursor repeats. Cursors are independent:
//     concurrent cursors over the same Source must not interfere
//     (replays of several algorithms share one Source).
type Source interface {
	Len() int64
	TimeSpan() (start, end int64, known bool)
	Cursor() (Cursor, error)
}

// Cursor streams requests. Next fills *req and reports whether a
// request was produced; the stream ends with (false, nil). Decoding or
// validation failures surface as the error. The cursors a Source hands
// out are allocation-free on the steady path: Next must not allocate
// once its internal buffers are warm (TextReader, which parses text,
// is the one cursor that allocates).
type Cursor interface {
	Next(req *Request) (bool, error)
	Close() error
}

// ---------- Slice source ----------

// SliceSource adapts an in-memory []Request trace to Source: the old
// replay path, everything in RAM.
type SliceSource struct {
	reqs []Request
}

// Slice wraps an in-memory trace as a Source.
func Slice(reqs []Request) *SliceSource { return &SliceSource{reqs: reqs} }

// Requests exposes the underlying slice (the engines use it to avoid
// re-buffering when the trace is already materialized).
func (s *SliceSource) Requests() []Request { return s.reqs }

// Len implements Source.
func (s *SliceSource) Len() int64 { return int64(len(s.reqs)) }

// TimeSpan implements Source.
func (s *SliceSource) TimeSpan() (int64, int64, bool) {
	if len(s.reqs) == 0 {
		return 0, 0, false
	}
	return s.reqs[0].Time, s.reqs[len(s.reqs)-1].Time, true
}

// Cursor implements Source.
func (s *SliceSource) Cursor() (Cursor, error) { return &sliceCursor{reqs: s.reqs}, nil }

type sliceCursor struct {
	reqs []Request
	pos  int
}

func (c *sliceCursor) Next(req *Request) (bool, error) {
	if c.pos >= len(c.reqs) {
		return false, nil
	}
	*req = c.reqs[c.pos]
	c.pos++
	return true, nil
}

func (c *sliceCursor) Close() error { return nil }

// Sequential returns src.Cursor(). It is kept only for the repository
// benchmark module, which still calls it.
func Sequential(src Source) (Cursor, error) { return src.Cursor() }

// Materialize drains a source into memory in replay order — for
// consumers that genuinely need the whole trace at once (Psychic and
// Belady precompute future knowledge). It defeats the streaming memory
// bound by construction; callers should say so to their users.
func Materialize(src Source) ([]Request, error) {
	cur, err := src.Cursor()
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	return collect(cur, src.Len())
}

// collect drains a cursor's remaining requests; n, when positive,
// sizes the result.
func collect(cur Cursor, n int64) ([]Request, error) {
	var out []Request
	if n > 0 {
		out = make([]Request, 0, n)
	}
	var r Request
	for {
		ok, err := cur.Next(&r)
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, r)
	}
}

// ---------- Opening a trace by path ----------

// Open opens the trace at path. A directory opens as a columnar trace
// (*Dir); anything else is parsed as a text-format file into memory
// (Slice). Every error names the path.
func Open(path string) (Source, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if st.IsDir() {
		return OpenDir(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	reqs, err := ReadText(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return Slice(reqs), nil
}
