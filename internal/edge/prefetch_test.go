package edge

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"videocdn/internal/cafe"
	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/xlru"
)

func postPrefetch(t *testing.T, rig *testRig, query string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(rig.edgeSrv.URL+"/prefetch?"+query, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, string(body)
}

func TestPrefetchEndpoint(t *testing.T) {
	cache, err := cafe.New(core.Config{ChunkSize: testK, DiskChunks: 64}, 1, cafe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	catalog := MapCatalog{1: 6 * testK}
	rig := newRig(t, cache, catalog)

	// Establish popularity: fetch the first two chunks twice.
	rig.get(t, 1, 0, 2*testK-1)
	rig.advance(10)
	rig.get(t, 1, 0, 2*testK-1)
	rig.advance(1)

	resp, body := postPrefetch(t, rig, "v=1&chunks=2")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if !strings.HasPrefix(body, "accepted 2") {
		t.Fatalf("body = %q, want accepted 2", body)
	}
	// Prefetched chunks must be in both the cache and the store.
	for _, idx := range []uint32{2, 3} {
		id := chunk.ID{Video: 1, Index: idx}
		if !cache.Contains(id) {
			t.Errorf("chunk %d not in cache", idx)
		}
		if !rig.chunkStr.Has(id) {
			t.Errorf("chunk %d not in store", idx)
		}
	}
	// A later request for those chunks is a pure hit (no new fills).
	rig.advance(5)
	before := rig.edge.SnapshotStats().FilledBytes
	rig.get(t, 1, 2*testK, 4*testK-1)
	after := rig.edge.SnapshotStats().FilledBytes
	if after != before {
		t.Errorf("prefetched range should hit without fills (%d -> %d)", before, after)
	}
}

func TestPrefetchStopsAtEndOfVideo(t *testing.T) {
	cache, err := cafe.New(core.Config{ChunkSize: testK, DiskChunks: 64}, 1, cafe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	catalog := MapCatalog{1: 3 * testK} // 3 chunks total
	rig := newRig(t, cache, catalog)
	rig.get(t, 1, 0, 2*testK-1)
	rig.advance(10)
	rig.get(t, 1, 0, 2*testK-1)
	rig.advance(1)
	// Only chunk 2 remains; asking for 10 must accept exactly 1.
	resp, body := postPrefetch(t, rig, "v=1&chunks=10")
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(body, "accepted 1") {
		t.Fatalf("status %d body %q", resp.StatusCode, body)
	}
}

func TestPrefetchUnsupportedAlgorithm(t *testing.T) {
	cache, err := xlru.New(core.Config{ChunkSize: testK, DiskChunks: 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The admission filter does not forward read-ahead, even over a
	// policy that has it: otherwise every admit: spec would claim it.
	admit, err := registryFactory(t, "admit:inner=cafe", 1)(0, core.Config{ChunkSize: testK, DiskChunks: 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []core.Cache{cache, admit} {
		rig := newRig(t, c, MapCatalog{1: 4 * testK})
		resp, _ := postPrefetch(t, rig, "v=1")
		if resp.StatusCode != http.StatusNotImplemented {
			t.Errorf("%s prefetch status = %d, want 501", c.Name(), resp.StatusCode)
		}
	}
}

func TestPrefetchValidation(t *testing.T) {
	cache, err := cafe.New(core.Config{ChunkSize: testK, DiskChunks: 64}, 1, cafe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rig := newRig(t, cache, MapCatalog{1: 4 * testK})
	// GET not allowed.
	resp, err := http.Get(rig.edgeSrv.URL + "/prefetch?v=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d", resp.StatusCode)
	}
	// Bad params.
	if resp, _ := postPrefetch(t, rig, "v=abc"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad video status = %d", resp.StatusCode)
	}
	if resp, _ := postPrefetch(t, rig, "v=1&chunks=0"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("chunks=0 status = %d", resp.StatusCode)
	}
	// Unknown video -> 502 from origin size lookup.
	if resp, _ := postPrefetch(t, rig, "v=99"); resp.StatusCode != http.StatusBadGateway {
		t.Errorf("unknown video status = %d", resp.StatusCode)
	}
	// Unknown video on a cold cache with no popularity: accepted 0.
	if resp, body := postPrefetch(t, rig, "v=1&chunks=1"); resp.StatusCode != http.StatusOK ||
		!strings.HasPrefix(body, "accepted 0") {
		t.Errorf("cold prefetch: status %d body %q", resp.StatusCode, body)
	}
}

// TestPrefetchDisplacementDeletesFromStore forces the prefetch path
// that displaces a resident chunk (full disk, prefetch target strictly
// more popular than the coldest resident) and asserts the displaced
// chunk's bytes leave the store with it. PrefetchNext reports its
// victims precisely so the edge can mirror the displacement; skipping
// that delete leaks the victim's bytes as store orphans.
func TestPrefetchDisplacementDeletesFromStore(t *testing.T) {
	cache, err := cafe.New(core.Config{ChunkSize: testK, DiskChunks: 4}, 1, cafe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	catalog := MapCatalog{1: 3 * testK, 2: 2 * testK}
	rig := newRig(t, cache, catalog)

	// Fill the disk exactly: two chunks of the soon-hot video 1, two of
	// the cold video 2 (warmup admission, free space available).
	rig.get(t, 1, 0, 2*testK-1)
	rig.advance(1)
	rig.get(t, 2, 0, 2*testK-1)
	if cache.Len() != 4 {
		t.Fatalf("cache holds %d chunks, want a full disk of 4", cache.Len())
	}

	// Heat video 1 with a tight request cadence; video 2 never recurs,
	// so its chunks become the coldest residents.
	for i := 0; i < 6; i++ {
		rig.advance(5)
		rig.get(t, 1, 0, 2*testK-1)
	}
	rig.advance(5)

	resp, body := postPrefetch(t, rig, "v=1&chunks=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if !strings.HasPrefix(body, "accepted 1") {
		t.Fatalf("body = %q, want accepted 1 (displacement refused?)", body)
	}
	target := chunk.ID{Video: 1, Index: 2}
	if !cache.Contains(target) || !rig.chunkStr.Has(target) {
		t.Fatal("prefetched chunk missing from cache or store")
	}
	// The displacement must have hit video 2, and the store must agree
	// with the cache chunk for chunk — a displaced resident whose bytes
	// survive in the store is an orphan leak.
	displaced := 0
	for _, id := range []chunk.ID{{Video: 2, Index: 0}, {Video: 2, Index: 1}} {
		if cache.Contains(id) != rig.chunkStr.Has(id) {
			t.Errorf("chunk %v: cache=%v store=%v diverge", id, cache.Contains(id), rig.chunkStr.Has(id))
		}
		if !cache.Contains(id) {
			displaced++
		}
	}
	if displaced != 1 {
		t.Fatalf("%d cold chunks displaced, want exactly 1", displaced)
	}
	if cache.Len() != 4 {
		t.Fatalf("cache holds %d chunks after displacement, want 4", cache.Len())
	}
}
