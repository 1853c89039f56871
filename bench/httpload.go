package main

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// redirectBase is the alternative location handed to the edge; the
// generator checks 302s against it and never follows them.
const redirectBase = "http://alt.invalid"

// httpLoad turns request indices into verified exchanges with an edge.
type httpLoad struct {
	w     *workload
	gen   *requestGen
	conns []*conn
	paths [][]byte // per-worker scratch for the request path

	// sent, when set, is bumped before every request: the in-process
	// pass runs the edge's clock off it.
	sent *atomic.Int64

	verifyNs atomic.Int64 // generator time spent checking bodies
	mu       sync.Mutex
	errs     []string // the first few failures, for the report
}

func newHTTPLoad(w *workload, gen *requestGen, addr string, workers int) (*httpLoad, error) {
	h := &httpLoad{w: w, gen: gen, paths: make([][]byte, workers)}
	for i := 0; i < workers; i++ {
		c, err := dial(addr)
		if err != nil {
			h.close()
			return nil, err
		}
		h.conns = append(h.conns, c)
	}
	return h, nil
}

func (h *httpLoad) close() {
	for _, c := range h.conns {
		c.close()
	}
}

func (h *httpLoad) op(worker int, i int64) sample { return h.exchange(worker, h.gen.at(i)) }

// exchange sends r and checks the answer: an operation fails on a
// transport error, a status outside 200/206/302, a short or wrong body,
// or a 302 that does not point at the same range elsewhere.
func (h *httpLoad) exchange(worker int, r request) sample {
	c := h.conns[worker]
	h.paths[worker] = requestPath(h.paths[worker][:0], r)
	path := h.paths[worker]
	if h.sent != nil {
		h.sent.Add(1)
	}
	res, err := c.get(path)
	if err != nil {
		h.fail(r, err)
		if err := c.redial(); err != nil {
			h.fail(r, err)
		}
		return sample{failed: true}
	}
	s := sample{ttfb: res.ttfb, lat: res.lat}
	switch res.status {
	case 200, 206:
		t0 := time.Now()
		err = verifyBody(h.w, r, res.body)
		h.verifyNs.Add(int64(time.Since(t0)))
		s.served = r.bytes()
	case 302:
		if !bytes.Equal(res.location, append([]byte(redirectBase), path...)) {
			err = fmt.Errorf("302 to %q", res.location)
		}
		s.redirected = r.bytes()
	default:
		err = fmt.Errorf("status %d", res.status)
	}
	if err != nil {
		h.fail(r, err)
		s.failed = true
	}
	return s
}

func (h *httpLoad) fail(r request, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.errs) < 5 {
		h.errs = append(h.errs, fmt.Sprintf("v=%d [%d,%d]: %v", r.video, r.start, r.end, err))
	}
}
