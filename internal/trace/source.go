package trace

import (
	"errors"
	"fmt"
	"os"
)

// Source is a replayable trace: a fixed shard fan-out plus per-shard
// request cursors. It is the abstraction the replay engines consume,
// satisfied both by in-memory []Request traces (Slice) and by on-disk
// columnar trace directories (OpenDir), so experiment scale is bounded
// by the trace medium, not by RAM.
//
// Contract:
//
//   - Shards() is a positive power of two. Shard s holds exactly the
//     requests whose video hashes to s under chunk.ShardOf(v, Shards()),
//     in their original relative order (which is time-ordered). An
//     unsharded trace has Shards() == 1.
//   - Len() is the total request count, or -1 when unknown.
//   - TimeSpan() returns the first and last request timestamps; known
//     is false when the source cannot tell without a full scan.
//   - Cursor(s) returns a fresh iterator over shard s. Cursors are
//     independent: concurrent cursors over the same or different shards
//     must not interfere (replays of several algorithms share one
//     Source).
type Source interface {
	Shards() int
	Len() int64
	TimeSpan() (start, end int64, known bool)
	Cursor(shard int) (Cursor, error)
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

// SequentialSource is optionally implemented by multi-shard Sources
// that can reproduce the exact original total request order (not just
// a time-ordered interleaving). The columnar format implements it via
// its per-request sequence column.
type SequentialSource interface {
	// SequentialCursor iterates all shards merged back into the exact
	// order the trace was written in.
	SequentialCursor() (Cursor, error)
}

// ShardMerger is optionally implemented by Sources that can merge a
// subset of their shards into one deterministically ordered stream —
// the parallel replay engine uses it when the replaying cache group
// has fewer shards than the trace.
type ShardMerger interface {
	// MergeShards iterates the union of the given shards in the exact
	// original relative order of those shards' requests.
	MergeShards(shards []int) (Cursor, error)
}

// ---------- Slice source ----------

// SliceSource adapts an in-memory []Request trace to Source. It is the
// old replay path: everything in RAM, Shards() == 1.
type SliceSource struct {
	reqs []Request
}

// Slice wraps an in-memory trace as a Source.
func Slice(reqs []Request) *SliceSource { return &SliceSource{reqs: reqs} }

// Requests exposes the underlying slice (the engines use it to avoid
// re-buffering when the trace is already materialized).
func (s *SliceSource) Requests() []Request { return s.reqs }

// Shards implements Source: an in-memory trace is unsharded.
func (s *SliceSource) Shards() int { return 1 }

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
func (s *SliceSource) Cursor(shard int) (Cursor, error) {
	if shard != 0 {
		return nil, fmt.Errorf("trace: slice source has 1 shard, got cursor request for shard %d", shard)
	}
	return &sliceCursor{reqs: s.reqs}, nil
}

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

// ---------- Sequential iteration ----------

// Sequential returns a cursor over the whole source in replay order:
// the exact original order when the source can reproduce it
// (SequentialSource), shard 0's order for unsharded sources, and a
// deterministic time-ordered merge (ties broken by shard index)
// otherwise.
func Sequential(src Source) (Cursor, error) {
	if ss, ok := src.(SequentialSource); ok {
		return ss.SequentialCursor()
	}
	if src.Shards() == 1 {
		return src.Cursor(0)
	}
	cs := make([]Cursor, src.Shards())
	for s := range cs {
		c, err := src.Cursor(s)
		if err != nil {
			closeAll(cs[:s])
			return nil, err
		}
		cs[s] = c
	}
	return MergeCursors(cs...), nil
}

// MergeCursors merges time-ordered cursors into one time-ordered
// stream; timestamp ties are broken by input index (stable within each
// input). The inputs are owned by the merge: closing it closes them.
func MergeCursors(cs ...Cursor) Cursor {
	items := make([]mergeItem, len(cs))
	for i, c := range cs {
		items[i] = mergeItem{cur: c}
	}
	return &mergeCursor{items: items}
}

type mergeItem struct {
	cur    Cursor
	req    Request
	loaded bool // req holds the input's next request
	done   bool
}

type mergeCursor struct {
	items []mergeItem
	err   error
}

func (m *mergeCursor) Next(req *Request) (bool, error) {
	if m.err != nil {
		return false, m.err
	}
	best := -1
	for i := range m.items {
		it := &m.items[i]
		if !it.loaded && !it.done {
			ok, err := it.cur.Next(&it.req)
			if err != nil {
				m.err = err
				return false, err
			}
			if !ok {
				it.done = true
				continue
			}
			it.loaded = true
		}
		if !it.loaded {
			continue
		}
		if best < 0 || it.req.Time < m.items[best].req.Time {
			best = i
		}
	}
	if best < 0 {
		return false, nil
	}
	*req = m.items[best].req
	m.items[best].loaded = false
	return true, nil
}

func (m *mergeCursor) Close() error {
	var errs []error
	for i := range m.items {
		if err := m.items[i].cur.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

func closeAll(cs []Cursor) {
	for _, c := range cs {
		if c != nil {
			c.Close()
		}
	}
}

// Materialize drains a source into memory in sequential order — for
// consumers that genuinely need the whole trace at once (Psychic and
// Belady precompute future knowledge). It defeats the streaming memory
// bound by construction; callers should say so to their users.
func Materialize(src Source) ([]Request, error) {
	cur, err := Sequential(src)
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
