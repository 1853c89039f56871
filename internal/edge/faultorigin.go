package edge

import (
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// FaultConfig tunes a FaultOrigin. All probabilities are in [0,1] and
// evaluated independently per request from the seeded random stream.
type FaultConfig struct {
	// Seed initializes the deterministic random stream. The fault
	// pattern is a pure function of (Seed, request order).
	Seed int64
	// ErrorRate is the probability of answering 503 instead of
	// forwarding to the wrapped origin.
	ErrorRate float64
	// LatencyRate is the probability of injecting a latency spike of
	// Latency before handling the request.
	LatencyRate float64
	// Latency is the injected spike duration.
	Latency time.Duration
	// TruncateRate is the probability of cutting the body of a /chunk
	// response, or of a /video response (the edge's ranged fill), at
	// half its Content-Length and aborting the connection (the client
	// sees an unexpected EOF after a 200/206 header).
	TruncateRate float64
}

// FaultCounts reports what a FaultOrigin has done so far.
type FaultCounts struct {
	Requests     int64 // requests received
	Errors       int64 // 503s injected
	Spikes       int64 // latency spikes injected
	Truncations  int64 // mid-body truncations injected
	ChunkBytesOK int64 // payload bytes of fully delivered 200/206 /chunk and /video (fill) bodies
}

// FaultOrigin wraps an origin handler with deterministic, seeded fault
// injection: per-request 5xx bursts, latency spikes, and mid-body
// truncation. Chaos tests drive the full edge↔origin stack through
// outages with it; given a seed and a request sequence the fault
// pattern is reproducible. Safe for concurrent use; the configuration
// can be swapped at runtime to script outage phases.
type FaultOrigin struct {
	inner http.Handler

	mu     sync.Mutex
	cfg    FaultConfig
	rng    *rand.Rand
	counts FaultCounts
}

// NewFaultOrigin wraps inner with fault injection.
func NewFaultOrigin(inner http.Handler, cfg FaultConfig) *FaultOrigin {
	return &FaultOrigin{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// SetConfig swaps the fault configuration (e.g. outage on/off between
// test phases) and reseeds the random stream from cfg.Seed.
func (f *FaultOrigin) SetConfig(cfg FaultConfig) {
	f.mu.Lock()
	f.cfg = cfg
	f.rng = rand.New(rand.NewSource(cfg.Seed))
	f.mu.Unlock()
}

// Counts returns a snapshot of the injection counters.
func (f *FaultOrigin) Counts() FaultCounts {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts
}

// ServeHTTP implements http.Handler.
func (f *FaultOrigin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	cfg := f.cfg
	f.counts.Requests++
	// Draw all verdicts up front so the fault pattern depends only on
	// the request order, not on which rates are enabled.
	spike := f.rng.Float64() < cfg.LatencyRate
	fail := f.rng.Float64() < cfg.ErrorRate
	truncate := f.rng.Float64() < cfg.TruncateRate
	if spike {
		f.counts.Spikes++
	}
	f.mu.Unlock()

	if spike && cfg.Latency > 0 {
		time.Sleep(cfg.Latency)
	}
	if fail {
		f.mu.Lock()
		f.counts.Errors++
		f.mu.Unlock()
		http.Error(w, "fault injected", http.StatusServiceUnavailable)
		return
	}
	fill := r.URL.Path == "/chunk" || r.URL.Path == "/video"
	if fill && truncate {
		f.cut(w, r)
	}
	if fill {
		cw := &countingWriter{ResponseWriter: w}
		f.inner.ServeHTTP(cw, r)
		if cw.status == http.StatusOK || cw.status == http.StatusPartialContent {
			f.mu.Lock()
			f.counts.ChunkBytesOK += cw.n
			f.mu.Unlock()
		}
		return
	}
	f.inner.ServeHTTP(w, r)
}

// cut serves r with its body cut at half its length (one byte when the
// length is unknown) and aborts the response, counting a truncation.
func (f *FaultOrigin) cut(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	f.counts.Truncations++
	f.mu.Unlock()
	f.inner.ServeHTTP(&truncatingWriter{ResponseWriter: w}, r)
	// Push out what the server still buffers — the inner handler
	// writes piece by piece, and a short last piece would otherwise
	// die with the connection — so the cut is exactly where
	// truncatingWriter made it. Then abort, so the client observes a
	// short body rather than a clean EOF at the advertised length.
	if fl, ok := w.(http.Flusher); ok {
		fl.Flush()
	}
	panic(http.ErrAbortHandler)
}

// countingWriter tallies payload bytes and the response status.
type countingWriter struct {
	http.ResponseWriter
	status int
	n      int64
}

func (w *countingWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// truncatingWriter forwards roughly half of the declared body, then
// swallows the rest (the wrapping handler aborts the connection).
type truncatingWriter struct {
	http.ResponseWriter
	limit   int64
	written int64
	armed   bool
}

func (w *truncatingWriter) arm() {
	if w.armed {
		return
	}
	w.armed = true
	w.limit = 1 // no Content-Length: deliver a single byte
	if cl, err := strconv.ParseInt(w.Header().Get("Content-Length"), 10, 64); err == nil && cl > 1 {
		w.limit = cl / 2
	}
}

func (w *truncatingWriter) WriteHeader(code int) {
	w.arm()
	w.ResponseWriter.WriteHeader(code)
}

func (w *truncatingWriter) Write(p []byte) (int, error) {
	w.arm()
	remain := w.limit - w.written
	if remain <= 0 {
		// Pretend success so the origin finishes its loop; the abort
		// happens in the wrapper.
		return len(p), nil
	}
	if int64(len(p)) > remain {
		n, err := w.ResponseWriter.Write(p[:remain])
		w.written += int64(n)
		if err != nil {
			return n, err
		}
		return len(p), nil
	}
	n, err := w.ResponseWriter.Write(p)
	w.written += int64(n)
	return n, err
}
