package belady

import (
	"math/rand"
	"testing"

	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/lruq"
	"videocdn/internal/trace"
)

const testK = 1024

func req(t int64, v chunk.VideoID, c0, c1 int) trace.Request {
	return trace.Request{Time: t, Video: v, Start: int64(c0) * testK, End: int64(c1+1)*testK - 1}
}

func newCache(t *testing.T, disk int, reqs []trace.Request) *Cache {
	t.Helper()
	c, err := New(core.Config{ChunkSize: testK, DiskChunks: disk}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestValidation(t *testing.T) {
	if _, err := New(core.Config{}, nil); err == nil {
		t.Error("bad config should fail")
	}
}

func TestAlwaysServes(t *testing.T) {
	var reqs []trace.Request
	rng := rand.New(rand.NewSource(2))
	tm := int64(0)
	for i := 0; i < 300; i++ {
		reqs = append(reqs, req(tm, chunk.VideoID(rng.Intn(12)), 0, rng.Intn(3)))
		tm += 2
	}
	c := newCache(t, 8, reqs)
	for i, r := range reqs {
		out := c.HandleRequest(r)
		if out.Decision != core.Serve {
			t.Fatalf("request %d redirected; Belady always fills", i)
		}
		if c.Len() > 8 {
			t.Fatal("disk overflow")
		}
	}
}

func TestEvictsFarthestFuture(t *testing.T) {
	reqs := []trace.Request{
		req(0, 1, 0, 0),   // A, next at t=10
		req(1, 2, 0, 0),   // B, next at t=100
		req(2, 3, 0, 0),   // C: must evict B (farther future), keep A
		req(10, 1, 0, 0),  // A hit
		req(100, 2, 0, 0), // B miss again
	}
	c := newCache(t, 2, reqs)
	outs := make([]core.Outcome, len(reqs))
	for i, r := range reqs {
		outs[i] = c.HandleRequest(r)
	}
	if outs[3].FilledChunks != 0 {
		t.Error("A should have been kept (nearest future)")
	}
	if outs[4].FilledChunks != 1 {
		t.Error("B should have been evicted at t=2 and refilled at t=100")
	}
}

// MIN optimality sanity: on any trace, Belady's fills never exceed
// LRU's fills (both always-fill; MIN is the optimal replacement).
func TestBeladyBeatsLRU(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 5; trial++ {
		var reqs []trace.Request
		tm := int64(0)
		for i := 0; i < 800; i++ {
			c0 := rng.Intn(3)
			reqs = append(reqs, req(tm, chunk.VideoID(rng.Intn(20)), c0, c0+rng.Intn(2)))
			tm += int64(rng.Intn(4))
		}
		cfg := core.Config{ChunkSize: testK, DiskChunks: 16}
		b := newCache(t, 16, reqs)
		l, err := lruq.New(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		var fillsB, fillsL int
		for _, r := range reqs {
			fillsB += b.HandleRequest(r).FilledChunks
			fillsL += l.HandleRequest(r).FilledChunks
		}
		if fillsB > fillsL {
			t.Errorf("trial %d: Belady filled %d > LRU %d", trial, fillsB, fillsL)
		}
	}
}

func TestOversizedRedirected(t *testing.T) {
	reqs := []trace.Request{req(0, 1, 0, 5)}
	c := newCache(t, 2, reqs)
	if out := c.HandleRequest(reqs[0]); out.Decision != core.Redirect {
		t.Error("oversized request must redirect")
	}
}

func TestPanicsBeyondTrace(t *testing.T) {
	reqs := []trace.Request{req(0, 1, 0, 0)}
	c := newCache(t, 2, reqs)
	c.HandleRequest(reqs[0])
	defer func() {
		if recover() == nil {
			t.Error("beyond-trace replay should panic")
		}
	}()
	c.HandleRequest(req(1, 1, 0, 0))
}

func TestName(t *testing.T) {
	if newCache(t, 1, nil).Name() != "belady" {
		t.Error("bad name")
	}
}
