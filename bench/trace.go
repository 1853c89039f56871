package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/store"
	"videocdn/internal/trace"
)

// Span names, one per layer boundary the bench wraps. A span's layer is
// the part of its name before the dot.
const (
	spanHandler = iota // edge: one /video request, ServeHTTP entry to return
	spanWrite          // edge: ResponseWriter.Write / ReadFrom (socket write; with sendfile also the kernel's file read)
	spanDecide         // policy: Cache.HandleRequest, i.e. the shard-lock hold time
	spanRead           // store: Get / GetBorrow / GetSection
	spanHas            // store: Has (the preflight probe)
	spanPut            // store: Put / PutStream
	spanDelete         // store: Delete
	spanSize           // origin: /size round trip and body
	spanFetch          // origin: /chunk round trip (request sent -> response header)
	spanBody           // origin: one Read of a /chunk body, usually inside a store.put
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"edge.handler", "edge.write", "policy.decide", "store.read", "store.has",
	"store.put", "store.delete", "origin.size", "origin.fetch", "origin.body",
}

// span is one timed crossing of a layer boundary. req and parent are
// filled in by resolve once the pass is over.
type span struct {
	kind       uint8
	start, end int64 // ns since the tracer's epoch
	req        int32 // sequence number of the request it belongs to, -1 for none
	parent     int32 // index of the innermost span containing it, -1 for none
}

// tracer collects spans into a slab allocated up front, so recording
// costs two clock reads and a short critical section and never
// allocates inside the measured pass.
type tracer struct {
	epoch time.Time
	on    atomic.Bool

	mu      sync.Mutex
	spans   []span
	dropped int

	// Counts taken at the same boundaries as the spans.
	redirects, served          int64
	reqChunks, filled, evicted int64 // over served requests
	fillReqs                   int64 // served requests that filled at least one chunk
	sizeLookups                int64 // /size round trips
	fetches                    []fetchInterval
}

// fetchInterval is one chunk fetch from request sent to body closed.
type fetchInterval struct{ start, end int64 }

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin returns the start stamp of a span, or -1 when tracing is off.
func (t *tracer) begin() int64 {
	if !t.on.Load() {
		return -1
	}
	return t.now()
}

// end records the span begun at start.
func (t *tracer) end(kind uint8, start int64) {
	if start < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, span{kind: kind, start: start, end: end, req: -1, parent: -1})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// resolve orders the spans by start time and derives each one's parent
// and request by containment. The pass is serial, so every span between
// a handler span's start and end belongs to that request.
func (t *tracer) resolve() {
	sort.SliceStable(t.spans, func(i, j int) bool {
		a, b := t.spans[i], t.spans[j]
		if a.start != b.start {
			return a.start < b.start
		}
		return a.end > b.end
	})
	var stack []int32
	req := int32(-1)
	for i := range t.spans {
		s := &t.spans[i]
		for len(stack) > 0 && t.spans[stack[len(stack)-1]].end < s.end {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			s.parent = stack[len(stack)-1]
			s.req = t.spans[s.parent].req
		}
		if s.kind == spanHandler {
			req++
			s.req = req
		}
		stack = append(stack, int32(i))
	}
}

// writeJSONL writes the resolved spans, one JSON object per line:
// name, start_ns, end_ns, req, parent (a line index, -1 for none).
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, s := range t.spans {
		fmt.Fprintf(w, `{"name":%q,"start_ns":%d,"end_ns":%d,"req":%d,"parent":%d}`+"\n",
			spanNames[s.kind], s.start, s.end, s.req, s.parent)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTimes is what the resolved spans add up to.
type layerTimes struct {
	requests int
	// self is, per span kind, the time inside spans of that kind and
	// inside none of their children.
	self  [numSpanKinds]time.Duration
	calls [numSpanKinds]int
	// orphan is time in spans that no handler span contains: work the
	// serial-pass assumption failed to attribute.
	orphan time.Duration
	// overlap is time counted twice because sibling spans overlapped.
	overlap   time.Duration
	handlerUs []float64 // per request
	decideUs  []float64 // per call
}

func (t *tracer) layerTimes() layerTimes {
	var lt layerTimes
	child := make([]int64, len(t.spans)) // time covered by direct children
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		dur := s.end - s.start
		self := dur - child[i]
		if self < 0 {
			lt.overlap += time.Duration(-self)
			self = 0
		}
		lt.self[s.kind] += time.Duration(self)
		lt.calls[s.kind]++
		switch {
		case s.kind == spanHandler:
			lt.requests++
			lt.handlerUs = append(lt.handlerUs, float64(dur)/1e3)
		case s.req < 0:
			lt.orphan += time.Duration(self)
		}
		if s.kind == spanDecide {
			lt.decideUs = append(lt.decideUs, float64(dur)/1e3)
		}
	}
	sort.Float64s(lt.handlerUs)
	sort.Float64s(lt.decideUs)
	return lt
}

// serialFetchShare is the share of chunk-fetch time during which no
// other fetch was in flight: 1 while a multi-chunk miss fetches its
// chunks one after another.
func serialFetchShare(fetches []fetchInterval) float64 {
	if len(fetches) == 0 {
		return 0
	}
	type edgeEv struct {
		at    int64
		delta int
	}
	var evs []edgeEv
	var total int64
	for _, f := range fetches {
		evs = append(evs, edgeEv{f.start, 1}, edgeEv{f.end, -1})
		total += f.end - f.start
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	var alone, last int64
	depth := 0
	for _, e := range evs {
		if depth == 1 {
			alone += e.at - last
		}
		depth += e.delta
		last = e.at
	}
	return ratio(float64(alone), float64(total))
}

// ---------- policy boundary ----------

// timedCache times HandleRequest and counts its outcomes.
type timedCache struct {
	core.Cache
	t         *tracer
	chunkSize int64
}

func (c *timedCache) HandleRequest(r trace.Request) core.Outcome {
	start := c.t.begin()
	out := c.Cache.HandleRequest(r)
	c.t.end(spanDecide, start)
	if start >= 0 {
		c0, c1 := r.ChunkRange(c.chunkSize)
		c.t.mu.Lock()
		if out.Decision == core.Redirect {
			c.t.redirects++
		} else {
			c.t.served++
			c.t.reqChunks += int64(c1-c0) + 1
			c.t.filled += int64(out.FilledChunks)
			c.t.evicted += int64(out.EvictedChunks)
			if out.FilledChunks > 0 {
				c.t.fillReqs++
			}
		}
		c.t.mu.Unlock()
	}
	return out
}

// Forget keeps the edge's admission rollback working through the
// wrapper: the server finds the capability by type assertion.
func (c *timedCache) Forget(id chunk.ID) {
	if f, ok := c.Cache.(interface{ Forget(chunk.ID) }); ok {
		f.Forget(id)
	}
}

// ---------- store boundary ----------

// timedStore times the five Store methods. The optional capabilities
// are added by wrapStore, exactly those the inner store has.
type timedStore struct {
	inner store.Store
	t     *tracer
}

func (s *timedStore) Put(id chunk.ID, data []byte) error {
	start := s.t.begin()
	err := s.inner.Put(id, data)
	s.t.end(spanPut, start)
	return err
}

func (s *timedStore) Get(id chunk.ID, buf []byte) ([]byte, error) {
	start := s.t.begin()
	data, err := s.inner.Get(id, buf)
	s.t.end(spanRead, start)
	return data, err
}

func (s *timedStore) Delete(id chunk.ID) error {
	start := s.t.begin()
	err := s.inner.Delete(id)
	s.t.end(spanDelete, start)
	return err
}

func (s *timedStore) Has(id chunk.ID) bool {
	start := s.t.begin()
	ok := s.inner.Has(id)
	s.t.end(spanHas, start)
	return ok
}

func (s *timedStore) Len() int { return s.inner.Len() }

type timedBorrow struct {
	inner store.BorrowGetter
	t     *tracer
}

func (b timedBorrow) GetBorrow(id chunk.ID) (store.Borrowed, error) {
	start := b.t.begin()
	br, err := b.inner.GetBorrow(id)
	b.t.end(spanRead, start)
	return br, err
}

type timedSection struct {
	inner store.SectionGetter
	t     *tracer
}

func (g timedSection) GetSection(id chunk.ID) (store.Section, error) {
	start := g.t.begin()
	sec, err := g.inner.GetSection(id)
	g.t.end(spanRead, start)
	return sec, err
}

type timedStream struct {
	inner store.StreamPutter
	t     *tracer
}

func (p timedStream) PutStream(id chunk.ID, r io.Reader, max int64, scratch []byte) (int64, error) {
	start := p.t.begin()
	n, err := p.inner.PutStream(id, r, max, scratch)
	p.t.end(spanPut, start)
	return n, err
}

// wrapStore returns a timing store with exactly the inner store's
// capability set: the edge picks its serve and fill paths by type
// assertion, so a wrapper that offered more or fewer interfaces would
// measure a different server.
func wrapStore(inner store.Store, t *tracer) store.Store {
	base := &timedStore{inner: inner, t: t}
	b, hasB := inner.(store.BorrowGetter)
	g, hasG := inner.(store.SectionGetter)
	p, hasP := inner.(store.StreamPutter)
	tb, tg, tp := timedBorrow{b, t}, timedSection{g, t}, timedStream{p, t}
	switch {
	case hasB && hasG && hasP:
		return struct {
			*timedStore
			timedBorrow
			timedSection
			timedStream
		}{base, tb, tg, tp}
	case hasB && hasG:
		return struct {
			*timedStore
			timedBorrow
			timedSection
		}{base, tb, tg}
	case hasB && hasP:
		return struct {
			*timedStore
			timedBorrow
			timedStream
		}{base, tb, tp}
	case hasG && hasP:
		return struct {
			*timedStore
			timedSection
			timedStream
		}{base, tg, tp}
	case hasB:
		return struct {
			*timedStore
			timedBorrow
		}{base, tb}
	case hasG:
		return struct {
			*timedStore
			timedSection
		}{base, tg}
	case hasP:
		return struct {
			*timedStore
			timedStream
		}{base, tp}
	}
	return base
}

// ---------- origin boundary ----------

// timedTransport times the edge's origin round trips and tells /size
// from /chunk.
type timedTransport struct {
	inner http.RoundTripper
	t     *tracer
}

func (rt *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	kind := uint8(spanFetch)
	if strings.HasSuffix(req.URL.Path, "/size") {
		kind = spanSize
	}
	start := rt.t.begin()
	resp, err := rt.inner.RoundTrip(req)
	rt.t.end(kind, start)
	if start >= 0 && kind == spanSize {
		rt.t.mu.Lock()
		rt.t.sizeLookups++
		rt.t.mu.Unlock()
	}
	if start >= 0 && err == nil {
		resp.Body = &timedBody{ReadCloser: resp.Body, t: rt.t, kind: kind, sent: start}
	}
	return resp, err
}

// timedBody times the reads of an origin response body. A /chunk body
// is read from inside store.PutStream, so its read time is the origin's
// share of that put.
type timedBody struct {
	io.ReadCloser
	t    *tracer
	kind uint8
	sent int64
}

func (b *timedBody) Read(p []byte) (int, error) {
	kind := uint8(spanBody)
	if b.kind == spanSize {
		kind = spanSize
	}
	start := b.t.begin()
	n, err := b.ReadCloser.Read(p)
	b.t.end(kind, start)
	return n, err
}

func (b *timedBody) Close() error {
	if b.kind == spanFetch {
		end := b.t.now()
		b.t.mu.Lock()
		b.t.fetches = append(b.t.fetches, fetchInterval{b.sent, end})
		b.t.mu.Unlock()
	}
	return b.ReadCloser.Close()
}

// ---------- handler boundary ----------

// timedHandler wraps the edge outermost: one handler span per /video
// request, and a ResponseWriter whose writes are timed and forwarded.
type timedHandler struct {
	inner http.Handler
	t     *tracer
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/video" {
		h.inner.ServeHTTP(w, r)
		return
	}
	start := h.t.begin()
	h.inner.ServeHTTP(&timedWriter{ResponseWriter: w, t: h.t}, r)
	h.t.end(spanHandler, start)
}

// timedWriter forwards ReadFrom to net/http's own, so a file section
// still reaches sendfile(2).
type timedWriter struct {
	http.ResponseWriter
	t *tracer
}

func (w *timedWriter) Write(p []byte) (int, error) {
	start := w.t.begin()
	n, err := w.ResponseWriter.Write(p)
	w.t.end(spanWrite, start)
	return n, err
}

func (w *timedWriter) ReadFrom(r io.Reader) (int64, error) {
	start := w.t.begin()
	n, err := w.ResponseWriter.(io.ReaderFrom).ReadFrom(r)
	w.t.end(spanWrite, start)
	return n, err
}
