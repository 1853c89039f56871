package sim

import (
	"os"
	"runtime"
	"strconv"
	"testing"

	"videocdn/internal/core"
	"videocdn/internal/cost"
	"videocdn/internal/trace"
	"videocdn/internal/workload"
)

// soakHeapBudget is the flat-memory bound the streaming replay must
// hold regardless of trace length: heap usage is O(cache state +
// cursor block buffers), never O(requests). The documented
// worst-case working set (DESIGN.md section 14) is a few tens of MB at
// this configuration; 256 MiB leaves generous headroom for GC slack
// while still failing loudly if anything starts accumulating the trace.
const soakHeapBudget = 256 << 20

// TestStreamingReplaySoakFlatMemory generates a columnar trace
// directory and replays it through one cache while sampling
// runtime.MemStats from the progress callback: peak HeapAlloc must stay
// under soakHeapBudget, a bound independent of trace length. The
// default volume keeps CI fast; set VIDEOCDN_SOAK_REQUESTS (e.g.
// 100000000) to run the month-scale soak — the budget does not change
// with the trace size, which is the point.
func TestStreamingReplaySoakFlatMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	target := 1_000_000
	if env := os.Getenv("VIDEOCDN_SOAK_REQUESTS"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil || n <= 0 {
			t.Fatalf("bad VIDEOCDN_SOAK_REQUESTS %q", env)
		}
		target = n
	}
	const days = 4
	p, err := workload.ProfileByName("europe")
	if err != nil {
		t.Fatal(err)
	}
	p.RequestsPerDay = target / days
	p.CatalogSize = 20_000
	p.NewVideosPerDay = 200

	peak := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	dir := t.TempDir()
	st, err := workload.GenerateDir(p, days, dir, workload.DirGenOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if genHeap := peak(); genHeap > soakHeapBudget {
		t.Fatalf("generation heap %d MiB exceeds the %d MiB flat-memory budget",
			genHeap>>20, soakHeapBudget>>20)
	}
	t.Logf("generated %d requests into %s", st.Requests, dir)

	d, err := trace.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := parallelFactories()[0].mk(0, core.Config{ChunkSize: 1 << 20, DiskChunks: 8192})
	if err != nil {
		t.Fatal(err)
	}
	var peakHeap uint64
	opt := Options{
		ProgressEvery: 100_000,
		Progress: func(done, total int) {
			if h := peak(); h > peakHeap {
				peakHeap = h
			}
		},
	}
	res, err := Replay(c, d, cost.MustModel(2), opt)
	if err != nil {
		t.Fatal(err)
	}
	if h := peak(); h > peakHeap {
		peakHeap = h
	}
	if res.Requests != int(d.Len()) {
		t.Fatalf("replayed %d of %d requests", res.Requests, d.Len())
	}
	t.Logf("replayed %d requests, peak sampled HeapAlloc %d MiB (budget %d MiB)",
		res.Requests, peakHeap>>20, soakHeapBudget>>20)
	if peakHeap > soakHeapBudget {
		t.Fatalf("peak HeapAlloc %d MiB exceeds the %d MiB flat-memory budget",
			peakHeap>>20, soakHeapBudget>>20)
	}
}
