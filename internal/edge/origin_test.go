package edge

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"testing"
	"time"
)

// TestContentWriterZeroAllocs pins the origin's streaming writer: once
// its piece is pooled, a response of any length allocates nothing.
func TestContentWriterZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is deliberately pessimized under -race")
	}
	const chunkSize = 256 << 10
	o, err := NewOrigin(MapCatalog{1: 4 * chunkSize}, chunkSize)
	if err != nil {
		t.Fatal(err)
	}
	o.writeContent(io.Discard, 1, 0, chunkSize-1)    // prime the pool
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a mid-run GC could empty the pool
	allocs := testing.AllocsPerRun(100, func() {
		o.writeContent(io.Discard, 1, chunkSize-7, 3*chunkSize+11)
	})
	if allocs != 0 {
		t.Errorf("content writer allocates %v times per response, want 0", allocs)
	}
	if n := o.scratchOut.Load(); n != 0 {
		t.Errorf("%d pieces still checked out", n)
	}
}

// TestChaosTruncationCutsAtHalfAcrossPieces: the origin issues one
// Write per piece, and a truncated /chunk must still be cut at exactly
// Content-Length/2 — inside the first piece, inside a later piece or
// on a piece boundary — and never count as delivered.
func TestChaosTruncationCutsAtHalfAcrossPieces(t *testing.T) {
	for _, chunkSize := range []int64{
		777, 1024, // one short piece
		originPiece + 4096,   // cut inside the first of two pieces
		5*originPiece + 1000, // cut inside the third piece
		4 * originPiece,      // cut exactly on a piece boundary
		2*originPiece + 200,  // cut 100 bytes into the second piece
		2*originPiece + 1,
	} {
		t.Run(fmt.Sprint(chunkSize), func(t *testing.T) {
			o, err := NewOrigin(MapCatalog{1: chunkSize}, chunkSize)
			if err != nil {
				t.Fatal(err)
			}
			fault := NewFaultOrigin(o, FaultConfig{Seed: 1, TruncateRate: 1})
			srv := httptest.NewServer(fault)
			defer srv.Close()
			resp, err := http.Get(srv.URL + "/chunk?v=1&c=0")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK || resp.ContentLength != chunkSize {
				t.Fatalf("status %d, Content-Length %d: the header must promise the whole chunk", resp.StatusCode, resp.ContentLength)
			}
			body, err := io.ReadAll(resp.Body)
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("read error %v, want unexpected EOF", err)
			}
			if int64(len(body)) != chunkSize/2 {
				t.Errorf("body cut at %d bytes, want Content-Length/2 = %d", len(body), chunkSize/2)
			}
			if want := refRange(1, chunkSize, 0, chunkSize/2-1); !bytes.Equal(body, want) {
				t.Error("delivered prefix differs from the content")
			}
			c := fault.Counts()
			if c.Truncations != 1 || c.ChunkBytesOK != 0 {
				t.Errorf("counts %+v: want 1 truncation and no delivered chunk bytes", c)
			}
			if n := o.scratchOut.Load(); n != 0 {
				t.Errorf("%d pieces still checked out after the aborted response", n)
			}
		})
	}
}

// TestChaosOriginClientDisconnectReturnsScratch: a client that hangs up
// mid-body ends the response at the next failed Write; the handler
// must return (no goroutine left generating) with its piece back in
// the pool.
func TestChaosOriginClientDisconnectReturnsScratch(t *testing.T) {
	const size = 1 << 30 // far beyond what socket buffers absorb
	o, err := NewOrigin(MapCatalog{1: size}, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(o)
	client := &http.Client{Transport: &http.Transport{}}
	before := runtime.NumGoroutine()
	for i, target := range []string{"/video?v=1", "/chunk?v=1&c=3", "/video?v=1&start=12345"} {
		resp, err := client.Get(srv.URL + target)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.CopyN(io.Discard, resp.Body, 100_000); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		resp.Body.Close() // unread body: the transport drops the connection
	}
	client.CloseIdleConnections()
	srv.Close() // returns once every handler has
	if n := o.scratchOut.Load(); n != 0 {
		t.Errorf("%d pieces still checked out after the clients hung up", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after the clients hung up", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
