// Command benchstore measures the chunk store backends in isolation
// and writes a machine-readable report (BENCH_store.json by default) —
// the benchmark the repository's performance trajectory tracks for the
// disk layer, as BENCH_edge.json does for the serve path.
//
// For each backend (mem, fs, slab, slab-mmap, and tiered — the RAM hot
// tier over the pread slab, the kind of store it keeps copies for: over
// the mmap slab it would stay empty) it reports Put,
// Get, and put+delete-cycle cost; for the persistent backends the
// cold-open recovery scan over a populated store; for the
// borrow-capable backends the zero-copy GetBorrow path; and for the
// tiered backend the hot/cold hit breakdown. The payload deliberately
// stays small (default 4 KB): the body memcpy is identical across
// backends, so a small body exposes the per-op metadata work — the FS
// store's open/write/rename/close vs the slab store's single
// positioned read or write — which is the thing the slab layout
// eliminates, and the slab pread vs the hot tier's RAM lookup, which
// is what the tier eliminates.
//
// Usage:
//
//	benchstore -o BENCH_store.json
//	benchstore -chunk-kb 64 -working-set 1024 -hot-mb 128
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"videocdn/internal/chunk"
	"videocdn/internal/store"
)

type opRow struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	MBPerSec    float64 `json:"mb_per_sec,omitempty"`
}

type storeRows struct {
	Put       opRow  `json:"put"`
	Get       opRow  `json:"get"`
	PutDelete opRow  `json:"put_delete_cycle"`
	Recovery  *opRow `json:"recovery_scan,omitempty"`
	// GetBorrow is the zero-copy read path (borrow-capable backends).
	GetBorrow *opRow `json:"get_borrow,omitempty"`
	// Tier is the hot/cold hit breakdown accumulated over the tiered
	// backend's Get and GetBorrow measurement passes.
	Tier        *store.TierStats `json:"tier,omitempty"`
	SegmentMeta string           `json:"layout,omitempty"`
}

type report struct {
	GeneratedAt string    `json:"generated_at"`
	GOOS        string    `json:"goos"`
	GOARCH      string    `json:"goarch"`
	CPUs        int       `json:"cpus"`
	GOMAXPROCS  int       `json:"gomaxprocs"`
	ChunkBytes  int64     `json:"chunk_bytes"`
	WorkingSet  int       `json:"working_set_chunks"`
	HotMB       int64     `json:"hot_mb"`
	Mem         storeRows `json:"mem"`
	FS          storeRows `json:"fs"`
	Slab        storeRows `json:"slab"`
	SlabMmap    storeRows `json:"slab_mmap"`
	Tiered      storeRows `json:"tiered"`
	// SlabVsFS summarizes the acceptance numbers: slab speedup over fs.
	SlabVsFS struct {
		Put         float64 `json:"put_speedup"`
		Get         float64 `json:"get_speedup"`
		GetAllocs   float64 `json:"get_allocs_per_op"`
		MeetsTarget bool    `json:"meets_5x_target"`
	} `json:"slab_vs_fs"`
	// TieredVsSlab summarizes the hot tier's acceptance numbers: a
	// steady-state hot Get must beat the slab pread by ≥5x with zero
	// allocations per op.
	TieredVsSlab struct {
		Get         float64 `json:"get_speedup"`
		GetAllocs   float64 `json:"get_allocs_per_op"`
		MeetsTarget bool    `json:"meets_5x_target"`
	} `json:"tiered_vs_slab"`
}

func main() {
	out := flag.String("o", "BENCH_store.json", "output JSON path")
	chunkKB := flag.Int64("chunk-kb", 4, "chunk payload size in KB")
	working := flag.Int("working-set", 256, "distinct chunks cycled through")
	hotMB := flag.Int64("hot-mb", 64, "tiered backend: RAM hot tier budget in MB")
	flag.Parse()

	slot := *chunkKB << 10
	ids := make([]chunk.ID, *working)
	for i := range ids {
		ids[i] = chunk.ID{Video: chunk.VideoID(1 + i/16), Index: uint32(i % 16)}
	}
	data := make([]byte, slot)
	for i := range data {
		data[i] = byte(i * 31)
	}

	rep := &report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		CPUs:        runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		ChunkBytes:  slot,
		WorkingSet:  *working,
		HotMB:       *hotMB,
	}
	hotBytes := *hotMB << 20

	for _, kind := range []string{"mem", "fs", "slab", "slab-mmap", "tiered"} {
		fmt.Fprintf(os.Stderr, "store: measuring %s...\n", kind)
		rows, err := measure(kind, slot, hotBytes, ids, data)
		if err != nil {
			fatal(err)
		}
		switch kind {
		case "mem":
			rep.Mem = rows
		case "fs":
			rep.FS = rows
		case "slab":
			rep.Slab = rows
		case "slab-mmap":
			rep.SlabMmap = rows
		case "tiered":
			rep.Tiered = rows
		}
	}
	rep.SlabVsFS.Put = rep.FS.Put.NsPerOp / rep.Slab.Put.NsPerOp
	rep.SlabVsFS.Get = rep.FS.Get.NsPerOp / rep.Slab.Get.NsPerOp
	rep.SlabVsFS.GetAllocs = rep.Slab.Get.AllocsPerOp
	rep.SlabVsFS.MeetsTarget = rep.SlabVsFS.Put >= 5 && rep.SlabVsFS.Get >= 5 && rep.SlabVsFS.GetAllocs == 0
	rep.TieredVsSlab.Get = rep.Slab.Get.NsPerOp / rep.Tiered.Get.NsPerOp
	rep.TieredVsSlab.GetAllocs = rep.Tiered.Get.AllocsPerOp
	rep.TieredVsSlab.MeetsTarget = rep.TieredVsSlab.Get >= 5 && rep.TieredVsSlab.GetAllocs == 0

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
	fmt.Printf("  put:  mem=%.0fns fs=%.0fns slab=%.0fns  (slab %.1fx vs fs)\n",
		rep.Mem.Put.NsPerOp, rep.FS.Put.NsPerOp, rep.Slab.Put.NsPerOp, rep.SlabVsFS.Put)
	fmt.Printf("  get:  mem=%.0fns fs=%.0fns slab=%.0fns  (slab %.1fx vs fs, %g allocs/op)\n",
		rep.Mem.Get.NsPerOp, rep.FS.Get.NsPerOp, rep.Slab.Get.NsPerOp, rep.SlabVsFS.Get, rep.SlabVsFS.GetAllocs)
	fmt.Printf("  hot:  tiered=%.0fns  (%.1fx vs slab pread, %g allocs/op)\n",
		rep.Tiered.Get.NsPerOp, rep.TieredVsSlab.Get, rep.TieredVsSlab.GetAllocs)
	if ts := rep.Tiered.Tier; ts != nil {
		total := ts.HotHits + ts.ColdHits + ts.Misses
		fmt.Printf("  tier: hot=%d cold=%d miss=%d (%.1f%% hot)  bytes hot=%d cold=%d\n",
			ts.HotHits, ts.ColdHits, ts.Misses,
			100*float64(ts.HotHits)/float64(max(total, 1)),
			ts.HotBytesServed, ts.ColdBytesServed)
	}
	if !rep.SlabVsFS.MeetsTarget {
		fmt.Println("  WARNING: slab did not meet the 5x-vs-fs target on this machine")
	}
	if !rep.TieredVsSlab.MeetsTarget {
		fmt.Println("  WARNING: tiered did not meet the 5x-vs-slab target on this machine")
	}
}

// open builds one store of the given kind rooted in a fresh temp dir.
func open(kind string, slot, hotBytes int64) (store.Store, func(), error) {
	switch kind {
	case "mem":
		return store.NewMem(), func() {}, nil
	case "fs":
		dir, err := os.MkdirTemp("", "benchstore-fs-")
		if err != nil {
			return nil, nil, err
		}
		s, err := store.NewFS(dir)
		if err != nil {
			os.RemoveAll(dir)
			return nil, nil, err
		}
		return s, func() { os.RemoveAll(dir) }, nil
	case "slab", "slab-mmap", "tiered":
		dir, err := os.MkdirTemp("", "benchstore-slab-")
		if err != nil {
			return nil, nil, err
		}
		s, err := store.NewSlab(dir, store.SlabConfig{SlotBytes: slot, SegmentSlots: 256, Mmap: kind == "slab-mmap"})
		if err != nil {
			os.RemoveAll(dir)
			return nil, nil, err
		}
		cleanup := func() { s.Close(); os.RemoveAll(dir) }
		if kind == "tiered" {
			return store.NewTiered(s, store.TieredConfig{HotBytes: hotBytes, Stripes: 8}), cleanup, nil
		}
		return s, cleanup, nil
	}
	return nil, nil, fmt.Errorf("unknown store kind %q", kind)
}

func measure(kind string, slot, hotBytes int64, ids []chunk.ID, data []byte) (storeRows, error) {
	var rows storeRows

	s, cleanup, err := open(kind, slot, hotBytes)
	if err != nil {
		return rows, err
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(slot)
		for i := 0; i < b.N; i++ {
			if err := s.Put(ids[i%len(ids)], data); err != nil {
				b.Fatal(err)
			}
		}
	})
	rows.Put = toRow(res, slot)
	cleanup()

	s, cleanup, err = open(kind, slot, hotBytes)
	if err != nil {
		return rows, err
	}
	buf := make([]byte, 0, slot)
	for _, id := range ids {
		if err := s.Put(id, data); err != nil {
			cleanup()
			return rows, err
		}
		// Warm read: promotes the working set into the hot tier (a
		// no-op for the flat backends), so the benchmark below measures
		// the steady state, not the promotion transient.
		if buf, err = s.Get(id, buf[:0]); err != nil {
			cleanup()
			return rows, err
		}
	}
	res = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(slot)
		for i := 0; i < b.N; i++ {
			var err error
			buf, err = s.Get(ids[i%len(ids)], buf[:0])
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	rows.Get = toRow(res, slot)

	// Zero-copy path, where the backend supports lending bytes.
	if bg, ok := s.(store.BorrowGetter); ok {
		if br, err := bg.GetBorrow(ids[0]); err == nil {
			br.Release()
			var sink byte
			res = testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(slot)
				for i := 0; i < b.N; i++ {
					br, err := bg.GetBorrow(ids[i%len(ids)])
					if err != nil {
						b.Fatal(err)
					}
					sink ^= br.Data[0]
					br.Release()
				}
			})
			_ = sink
			row := toRow(res, slot)
			rows.GetBorrow = &row
		}
	}
	if tr, ok := s.(*store.Tiered); ok {
		ts := tr.Stats()
		rows.Tier = &ts
	}
	cleanup()

	s, cleanup, err = open(kind, slot, hotBytes)
	if err != nil {
		return rows, err
	}
	res = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			id := ids[i%len(ids)]
			if err := s.Put(id, data); err != nil {
				b.Fatal(err)
			}
			if err := s.Delete(id); err != nil {
				b.Fatal(err)
			}
		}
	})
	rows.PutDelete = toRow(res, 0)
	cleanup()

	if kind == "fs" || kind == "slab" {
		row, err := measureRecovery(kind, slot, ids, data)
		if err != nil {
			return rows, err
		}
		rows.Recovery = &row
	}
	if kind == "slab" {
		rows.SegmentMeta = fmt.Sprintf("segments of 256 slots, %d B payload + 32 B header per slot", slot)
	}
	return rows, nil
}

// measureRecovery times a cold open over a populated store.
func measureRecovery(kind string, slot int64, ids []chunk.ID, data []byte) (opRow, error) {
	dir, err := os.MkdirTemp("", "benchstore-recover-")
	if err != nil {
		return opRow{}, err
	}
	defer os.RemoveAll(dir)

	populate := func() error {
		var s store.Store
		var closeFn func() error = func() error { return nil }
		switch kind {
		case "fs":
			fs, err := store.NewFS(dir)
			if err != nil {
				return err
			}
			s = fs
		case "slab":
			sl, err := store.NewSlab(dir, store.SlabConfig{SlotBytes: slot, SegmentSlots: 256})
			if err != nil {
				return err
			}
			s, closeFn = sl, sl.Close
		}
		for _, id := range ids {
			if err := s.Put(id, data); err != nil {
				return err
			}
		}
		return closeFn()
	}
	if err := populate(); err != nil {
		return opRow{}, err
	}

	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			switch kind {
			case "fs":
				r, err := store.NewFS(dir)
				if err != nil {
					b.Fatal(err)
				}
				if r.Len() != len(ids) {
					b.Fatalf("recovered %d, want %d", r.Len(), len(ids))
				}
			case "slab":
				r, err := store.NewSlab(dir, store.SlabConfig{SlotBytes: slot, SegmentSlots: 256})
				if err != nil {
					b.Fatal(err)
				}
				if r.Len() != len(ids) {
					b.Fatalf("recovered %d, want %d", r.Len(), len(ids))
				}
				r.Close()
			}
		}
	})
	return toRow(res, 0), nil
}

func toRow(res testing.BenchmarkResult, slot int64) opRow {
	row := opRow{
		NsPerOp:     float64(res.NsPerOp()),
		AllocsPerOp: float64(res.AllocsPerOp()),
		BytesPerOp:  float64(res.AllocedBytesPerOp()),
	}
	if slot > 0 && res.NsPerOp() > 0 {
		row.MBPerSec = float64(slot) / float64(res.NsPerOp()) * 1e3 // bytes/ns → MB/s
	}
	return row
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchstore:", err)
	os.Exit(1)
}
