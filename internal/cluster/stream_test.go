package cluster

// FetchStream hands a peer's body to a sink instead of materializing
// it, and must never buffer a response it already knows it will
// discard. The allocation-bound tests pin that empirically: a lying
// peer declaring a huge Content-Length costs no buffer at all, and an
// unbounded chunked body is read no further than the size cap.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"videocdn/internal/chunk"
	"videocdn/internal/edge"
	"videocdn/internal/resilience"
)

// collectSink is the simplest conforming sink: read everything,
// remember it. A retried sink starts clean, like a fresh PutStream.
func collectSink(dst *bytes.Buffer) func(io.Reader) (int64, error) {
	return func(r io.Reader) (int64, error) {
		dst.Reset()
		return io.Copy(dst, r)
	}
}

// fetchAll is FetchStream with the chunk collected in memory.
func fetchAll(c *Client, id chunk.ID) ([]byte, error) {
	var buf bytes.Buffer
	_, err := c.FetchStream(context.Background(), id, collectSink(&buf))
	return buf.Bytes(), err
}

func TestClientFetchStreamMatchesFetch(t *testing.T) {
	rig := newClientRig(t, ClientConfig{})
	v := rig.videoOwnedBy(t, "p1", "")
	var got bytes.Buffer
	size, err := rig.client.FetchStream(context.Background(), chunk.ID{Video: v}, collectSink(&got))
	if err != nil {
		t.Fatal(err)
	}
	if size != int64(len("peer bytes")) || got.String() != "peer bytes" {
		t.Fatalf("FetchStream = %d bytes %q", size, got.String())
	}
	if n, hop := rig.peers["p1"].snapshot(); n != 1 || hop != "1" {
		t.Errorf("owner saw %d requests with hop %q, want 1 request with hop \"1\"", n, hop)
	}
	if c := rig.client.Counts(); c.Hits != 1 || c.Fetches != 1 {
		t.Errorf("counts: %+v", c)
	}
}

func TestClientFetchStreamSelfOwnerIsImmediateMiss(t *testing.T) {
	rig := newClientRig(t, ClientConfig{})
	v := rig.videoOwnedBy(t, "self", "")
	_, err := rig.client.FetchStream(context.Background(), chunk.ID{Video: v}, collectSink(&bytes.Buffer{}))
	if !errors.Is(err, ErrSelfOwner) || !errors.Is(err, edge.ErrPeerSelf) {
		t.Fatalf("err = %v, want ErrSelfOwner", err)
	}
	for id, fp := range rig.peers {
		if n, _ := fp.snapshot(); n != 0 {
			t.Errorf("peer %s was contacted %d times on a self-owned video", id, n)
		}
	}
}

func TestClientFetchStream404IsAuthoritativeMiss(t *testing.T) {
	rig := newClientRig(t, ClientConfig{})
	v := rig.videoOwnedBy(t, "p1", "p2")
	rig.peers["p1"].mu.Lock()
	rig.peers["p1"].status = http.StatusNotFound
	rig.peers["p1"].mu.Unlock()
	_, err := rig.client.FetchStream(context.Background(), chunk.ID{Video: v}, collectSink(&bytes.Buffer{}))
	if !errors.Is(err, ErrNotCached) || !errors.Is(err, edge.ErrPeerMiss) {
		t.Fatalf("err = %v, want ErrNotCached (a peer miss)", err)
	}
	if n, _ := rig.peers["p2"].snapshot(); n != 0 {
		t.Errorf("second owner saw %d requests after the owner's 404", n)
	}
}

// A sink failure is the local store's fault, not the peer's: the peer
// delivered, so its breaker records success, no other peer is tried,
// and the fetch counts as a hit.
func TestClientFetchStreamSinkFailureIsNotPeerFailure(t *testing.T) {
	rig := newClientRig(t, ClientConfig{})
	v := rig.videoOwnedBy(t, "p1", "p2")
	boom := errors.New("local disk full")
	_, err := rig.client.FetchStream(context.Background(), chunk.ID{Video: v}, func(r io.Reader) (int64, error) {
		n, _ := io.Copy(io.Discard, r) // the body arrives fine; storing it fails
		return n, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the sink's own error back", err)
	}
	if n, _ := rig.peers["p2"].snapshot(); n != 0 {
		t.Errorf("second owner saw %d requests for a failure that was not p1's", n)
	}
	if st := rig.client.BreakerStates()["p1"]; st != resilience.Closed {
		t.Errorf("p1 breaker = %v — an innocent peer must record success", st)
	}
	if c := rig.client.Counts(); c.Hits != 1 || c.Failures != 0 {
		t.Errorf("counts: %+v — a delivered body is a hit even when the sink fails", c)
	}
}

// A body truncated mid-stream is the peer's fault: the client fails
// over to the next owner and the request still completes.
func TestClientFetchStreamTruncatedBodyFailsOver(t *testing.T) {
	trunc := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "10")
		w.Write([]byte("abc"))
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler) // short body, not a clean EOF
	}))
	t.Cleanup(trunc.Close)
	whole := &fakePeer{body: []byte("peer bytes")}
	wholeSrv := httptest.NewServer(whole)
	t.Cleanup(wholeSrv.Close)

	m := mustMembership(t, []Node{
		{ID: "self", URL: "http://self.invalid"},
		{ID: "t1", URL: trunc.URL},
		{ID: "p2", URL: wholeSrv.URL},
	})
	router := NewRouter(m)
	client := NewClient(router, ClientConfig{Self: "self", Timeout: 200 * time.Millisecond})
	t.Cleanup(client.Close)
	var v chunk.VideoID
	for v = 1; v < 100000; v++ {
		if owners := router.Owners(v); owners[0].ID == "t1" && owners[1].ID == "p2" {
			break
		}
	}

	var got bytes.Buffer
	sinkCalls := 0
	size, err := client.FetchStream(context.Background(), chunk.ID{Video: v}, func(r io.Reader) (int64, error) {
		sinkCalls++
		got.Reset() // a retried sink starts clean, like a fresh PutStream
		n, cerr := io.Copy(&got, r)
		return n, cerr
	})
	if err != nil {
		t.Fatalf("failover FetchStream: %v", err)
	}
	if size != int64(len("peer bytes")) || got.String() != "peer bytes" {
		t.Fatalf("FetchStream after failover = %d bytes %q", size, got.String())
	}
	if sinkCalls != 2 {
		t.Errorf("sink ran %d times, want 2 (truncated attempt, then the survivor)", sinkCalls)
	}
	if n, _ := whole.snapshot(); n != 1 {
		t.Errorf("second owner saw %d requests, want 1", n)
	}
}

// measureAllocs returns the heap bytes allocated across fn, with the
// collector quiesced first.
func measureAllocs(fn func()) int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	fn()
	runtime.ReadMemStats(&ms)
	return int64(ms.TotalAlloc - before)
}

// TestClientFetchAllocationBounded: a peer response the client will
// discard must not cost a MaxChunkBytes+1 buffer. 16 fetches against a
// peer declaring 64 MiB bodies (with the default 16 MiB cap) are
// rejected on the declared size, before a single body byte is read or
// buffered.
func TestClientFetchAllocationBounded(t *testing.T) {
	t.Run("declared", func(t *testing.T) {
		liar := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", fmt.Sprint(int64(64<<20)))
			w.Write([]byte("xx"))
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		}))
		t.Cleanup(liar.Close)
		m := mustMembership(t, []Node{
			{ID: "self", URL: "http://self.invalid"},
			{ID: "big", URL: liar.URL},
		})
		client := NewClient(NewRouter(m), ClientConfig{
			Self: "self", Timeout: 200 * time.Millisecond,
			Breaker: resilience.BreakerConfig{MinSamples: math.MaxInt32},
		})
		t.Cleanup(client.Close)
		var v chunk.VideoID
		for v = 1; v < 100000; v++ {
			if owners := NewRouter(m).Owners(v); owners[0].ID == "big" {
				break
			}
		}
		var got bytes.Buffer // one sink buffer for all fetches: the bound is the client's
		fetch := func(c uint32) {
			if _, err := client.FetchStream(context.Background(), chunk.ID{Video: v, Index: c}, collectSink(&got)); err == nil ||
				errors.Is(err, edge.ErrPeerMiss) {
				t.Fatalf("oversized declared payload must be a peer failure, got %v", err)
			}
			if got.Len() != 0 {
				t.Fatalf("the sink was handed %d bytes of a body rejected on its declared size", got.Len())
			}
		}
		fetch(0)
		fetch(1) // warm the transport before measuring
		const fetches = 16
		delta := measureAllocs(func() {
			for c := uint32(2); c < 2+fetches; c++ {
				fetch(c)
			}
		})
		if limit := int64(8 << 20); delta > limit {
			t.Errorf("%d discarded fetches allocated %d bytes, want < %d — the declared size is being buffered",
				fetches, delta, limit)
		}
	})

	// A peer that declares nothing and streams forever is bounded by
	// the size cap (the sink sees at most max+1 bytes), never by the
	// body.
	t.Run("chunked", func(t *testing.T) {
		body := bytes.Repeat([]byte("f"), 1<<20)
		firehose := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.(http.Flusher).Flush() // chunked: no Content-Length
			w.Write(body)
		}))
		t.Cleanup(firehose.Close)
		m := mustMembership(t, []Node{
			{ID: "self", URL: "http://self.invalid"},
			{ID: "hose", URL: firehose.URL},
		})
		client := NewClient(NewRouter(m), ClientConfig{
			Self: "self", Timeout: 200 * time.Millisecond, MaxChunkBytes: 64 << 10,
			Breaker: resilience.BreakerConfig{MinSamples: math.MaxInt32},
		})
		t.Cleanup(client.Close)
		var v chunk.VideoID
		for v = 1; v < 100000; v++ {
			if owners := NewRouter(m).Owners(v); owners[0].ID == "hose" {
				break
			}
		}
		var got bytes.Buffer // one sink buffer for all fetches: the bound is the client's
		fetch := func(c uint32) {
			if _, err := client.FetchStream(context.Background(), chunk.ID{Video: v, Index: c}, collectSink(&got)); err == nil ||
				errors.Is(err, edge.ErrPeerMiss) {
				t.Fatalf("unbounded chunked payload must be a peer failure, got %v", err)
			}
			if got.Len() > 64<<10+1 {
				t.Fatalf("the sink was handed %d bytes, past the %d-byte cap", got.Len(), 64<<10)
			}
		}
		fetch(0)
		fetch(1)
		const fetches = 16
		delta := measureAllocs(func() {
			for c := uint32(2); c < 2+fetches; c++ {
				fetch(c)
			}
		})
		// 16 × 1 MiB of body would be ≥16 MiB if the client read to EOF;
		// the cap stops each read at 64 KiB+1.
		if limit := int64(8 << 20); delta > limit {
			t.Errorf("%d capped fetches allocated %d bytes, want < %d — the body is being read past the cap",
				fetches, delta, limit)
		}
	})
}
