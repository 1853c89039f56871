package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"videocdn/internal/chunk"
	"videocdn/internal/edge"
	"videocdn/internal/store"
)

// toyWorkload returns a workload of workloads.json at smoke size.
func toyWorkload(t *testing.T, name string) workload {
	t.Helper()
	s, err := loadSuite()
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.find(name)
	if err != nil {
		t.Fatal(err)
	}
	if w, err = w.toy(); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := percentile(xs[:999], 99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and was accepted")
	}
	if v, err := percentile(xs, 99); err != nil || v != 989 {
		t.Errorf("p99 of 1000 samples = %v, %v; want 989 with 10 beyond it", v, err)
	}
	if _, err := percentile(xs[:19], 50); err == nil {
		t.Error("p50 of 19 samples has 9 beyond it and was accepted")
	}
	if v, err := percentile(xs[:20], 50); err != nil || v != 9 {
		t.Errorf("p50 of 20 samples = %v, %v; want 9", v, err)
	}
}

func TestChunkBytesEqualMatchesChunkData(t *testing.T) {
	want := make([]byte, 10_007)
	edge.ChunkData(77, 3, want)
	for _, win := range [][2]int{{0, len(want)}, {0, 5}, {3, 4099}, {8, 16}, {4093, 10_007}, {10_000, 10_007}} {
		if !chunkBytesEqual(77, 3, int64(win[0]), want[win[0]:win[1]]) {
			t.Errorf("window %v of edge.ChunkData(77, 3) rejected", win)
		}
	}
	bad := append([]byte(nil), want...)
	bad[5000] ^= 1
	if chunkBytesEqual(77, 3, 0, bad) {
		t.Error("a flipped bit in the middle of a chunk was accepted")
	}
	if chunkBytesEqual(77, 4, 0, want) || chunkBytesEqual(78, 3, 0, want) {
		t.Error("another chunk's bytes were accepted")
	}
}

// capabilities names the optional store interfaces v offers.
func capabilities(v store.Store) string {
	var c []string
	if _, ok := v.(store.BorrowGetter); ok {
		c = append(c, "borrow")
	}
	if _, ok := v.(store.SectionGetter); ok {
		c = append(c, "section")
	}
	if _, ok := v.(store.StreamPutter); ok {
		c = append(c, "stream")
	}
	return strings.Join(c, "+")
}

// storeOnly hides every optional capability of a store.
type storeOnly struct{ store.Store }

func TestWrapStoreKeepsCapabilitySet(t *testing.T) {
	pread, err := store.NewSlab(t.TempDir(), store.SlabConfig{SlotBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer pread.Close()
	mmap, err := store.NewSlab(t.TempDir(), store.SlabConfig{SlotBytes: 4096, Mmap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mmap.Close()
	fs, err := store.NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	inners := map[string]store.Store{
		"mem":       store.NewMem(),
		"slab":      pread,
		"slab-mmap": mmap,
		"tiered":    store.NewTiered(pread, store.TieredConfig{HotBytes: 1 << 20}),
		"fs":        fs,
		"bare":      storeOnly{store.NewMem()},
	}
	tr := newTracer(1 << 10)
	tr.on.Store(true)
	id := chunk.ID{Video: 1, Index: 2}
	for name, inner := range inners {
		wrapped := wrapStore(inner, tr)
		if got, want := capabilities(wrapped), capabilities(inner); got != want {
			t.Errorf("%s: wrapper offers %q, inner %q", name, got, want)
		}
		if err := wrapped.Put(id, []byte("abc")); err != nil {
			t.Errorf("%s: Put: %v", name, err)
		}
		if data, err := wrapped.Get(id, nil); err != nil || string(data) != "abc" {
			t.Errorf("%s: Get = %q, %v", name, data, err)
		}
		if !wrapped.Has(id) || wrapped.Len() != inner.Len() {
			t.Errorf("%s: Has/Len not forwarded", name)
		}
	}
	if want := 3 * len(inners); len(tr.spans) != want {
		t.Errorf("%d spans recorded for Put+Get+Has on %d stores, want %d", len(tr.spans), len(inners), want)
	}
}

// The traced server must be the server: same serve paths, same /stats.
func TestTracedPassMatchesUntraced(t *testing.T) {
	for _, name := range []string{"hit-small", "miss-churn"} {
		w := toyWorkload(t, name)
		bare, err := runSerial("..", &w, 7, 300, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer(1 << 16)
		traced, err := runSerial("..", &w, 7, 300, tr, nil)
		if err != nil {
			t.Fatal(err)
		}
		if bare.failed+traced.failed != 0 {
			t.Errorf("%s: failed operations: %v %v", name, bare.errs, traced.errs)
		}
		if bare.paths != traced.paths {
			t.Errorf("%s: serve paths differ: untraced %+v, traced %+v", name, bare.paths, traced.paths)
		}
		a, _ := json.Marshal(bare.statsJSON)
		b, _ := json.Marshal(traced.statsJSON)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: /stats differ:\nuntraced %s\ntraced   %s", name, a, b)
		}
		tr.resolve()
		if lt := tr.layerTimes(); lt.requests != 300 || lt.orphan != 0 {
			t.Errorf("%s: %d handler spans for 300 requests, %v outside any handler", name, lt.requests, lt.orphan)
		}
	}
}

// corruptOrigin flips one bit of every /chunk body.
func corruptOrigin(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/chunk" {
			inner.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if len(body) > 100 {
			body[100] ^= 1
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	})
}

// A faulty origin must show in failed_ops: truncations are the edge's
// to retry, corrupt bytes are the generator's to catch.
func TestCorruptOriginFailsOperations(t *testing.T) {
	w := toyWorkload(t, "hit-small")
	faulty := func(origin http.Handler) http.Handler {
		return edge.NewFaultOrigin(corruptOrigin(origin), edge.FaultConfig{Seed: 1, TruncateRate: 0.05})
	}
	run, err := runSerial("..", &w, 3, 200, nil, faulty)
	if err != nil {
		t.Fatal(err)
	}
	if run.failed == 0 {
		t.Error("every chunk is corrupt and no operation failed")
	}
	if len(run.errs) == 0 || !strings.Contains(run.errs[0], "differs from edge.ChunkData") {
		t.Errorf("failures not attributed to the body check: %v", run.errs)
	}
	clean, err := runSerial("..", &w, 3, 200, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if clean.failed != 0 {
		t.Errorf("clean origin: %d failed operations: %v", clean.failed, clean.errs)
	}
}

// An open loop charges a stall to every operation that was due during
// it; a closed loop would have charged it to one.
func TestOpenLoopChargesStallToDueRequests(t *testing.T) {
	const (
		every    = 10 * time.Millisecond
		stall    = 100 * time.Millisecond
		stalled  = 5 // the operation that stalls
		requests = 30
	)
	due := make([]time.Duration, requests)
	for i := range due {
		due[i] = time.Duration(i+1) * every
	}
	var next atomic.Int64
	p := runOpen(1, due, time.Second, &next, func(_ int, i int64) sample {
		t0 := time.Now()
		if i == stalled {
			time.Sleep(stall)
		}
		return sample{lat: time.Since(t0)}
	})
	if len(p.samples) != requests {
		t.Fatalf("%d samples, want %d", len(p.samples), requests)
	}
	delayed := 0
	for i, s := range p.samples {
		// Operation i was due at (i+1)*every; the stall ran from about
		// (stalled+1)*every for 100 ms, so the operations due in it
		// waited for what was left of it.
		want := time.Duration(0)
		if i >= stalled && time.Duration(i-stalled)*every < stall {
			want = stall - time.Duration(i-stalled)*every
			delayed++
		}
		if s.lat < want-every/2 || s.lat > want+3*every {
			t.Errorf("operation %d: latency %v, want about %v", i, s.lat, want)
		}
	}
	if delayed != int(stall/every) {
		t.Fatalf("test is wrong: %d operations expected to be delayed", delayed)
	}
}

func TestRequestStreamIsSeeded(t *testing.T) {
	for _, name := range []string{"hit-small", "stream-large", "miss-churn"} {
		w := toyWorkload(t, name)
		a, b, c := newRequestGen(w, 5), newRequestGen(w, 5), newRequestGen(w, 6)
		same := true
		for i := int64(0); i < 500; i++ {
			ra := a.at(i)
			if ra != b.at(i) {
				t.Fatalf("%s: request %d differs between two generators of seed 5", name, i)
			}
			same = same && ra == c.at(i)
			size := int64(w.VideoMB) << 20
			if ra.start%w.ChunkBytes != 0 || ra.bytes() != int64(w.RangeChunks)*w.ChunkBytes || ra.end >= size {
				t.Fatalf("%s: request %d = %+v is not %d aligned chunks inside a %d-byte video", name, i, ra, w.RangeChunks, size)
			}
		}
		if same {
			t.Errorf("%s: seeds 5 and 6 give the same stream", name)
		}
	}
}

func TestSerialFetchShare(t *testing.T) {
	serial := []fetchInterval{{0, 10}, {10, 20}, {25, 30}}
	if got := serialFetchShare(serial); got != 1 {
		t.Errorf("back-to-back fetches: share %v, want 1", got)
	}
	overlapped := []fetchInterval{{0, 10}, {5, 15}}
	if got := serialFetchShare(overlapped); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("two fetches overlapping by half: share %v, want 0.5", got)
	}
}

// -smoke end to end: every workload, both passes, toy size, and every
// metric name of BENCHMARK.json comes out (conform checks the names
// against the file both ways).
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cdnserver and launches children")
	}
	s, err := loadSuite()
	if err != nil {
		t.Fatal(err)
	}
	b, err := loadBenchFile("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(s.Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, workloads.json %d", len(b.Workloads), len(s.Workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != s.Workloads[i].Name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in workloads.json", i, w.Name, s.Workloads[i].Name)
		}
	}
	bin, _, err := buildServer("..")
	if err != nil {
		t.Fatal(err)
	}
	e := &env{root: "..", serverBin: bin, workers: 2}
	start := time.Now()
	var out bytes.Buffer
	if err := runSmoke(e, s, b, 1, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if d := time.Since(start); d > 15*time.Second {
		t.Errorf("smoke took %v, budget 15s", d)
	}
	for _, spec := range append(append([]metricSpec(nil), b.EndToEnd...), b.PerLayer...) {
		if !strings.Contains(out.String(), spec.Name+" ") {
			t.Errorf("metric %s missing from the smoke output", spec.Name)
		}
	}
}
