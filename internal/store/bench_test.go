package store

import (
	"bytes"
	"testing"

	"videocdn/internal/chunk"
)

// benchSlotBytes is the chunk payload used by the store benchmarks.
// 4 KB keeps the payload memcpy (identical across backends) from
// drowning the per-op metadata work — open/rename/stat vs a single
// positioned read/write — which is what distinguishes the stores.
const benchSlotBytes = 4 << 10

// benchWorkingSet bounds how many distinct chunks the Put/Get/Delete
// benchmarks cycle through, so the on-disk footprint stays small while
// the id stream still defeats any single-key fast path.
const benchWorkingSet = 256

func benchPayload() []byte {
	data := make([]byte, benchSlotBytes)
	for i := range data {
		data[i] = byte(i * 31)
	}
	return data
}

func benchIDs() []chunk.ID {
	ids := make([]chunk.ID, benchWorkingSet)
	for i := range ids {
		ids[i] = chunk.ID{Video: chunk.VideoID(1 + i/16), Index: uint32(i % 16)}
	}
	return ids
}

// benchOpen builds one store of each kind with slot geometry matching
// the benchmark payload.
func benchOpen(b *testing.B, kind string) Store {
	b.Helper()
	switch kind {
	case "mem":
		return NewMem()
	case "fs":
		s, err := NewFS(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		return s
	case "slab":
		s, err := NewSlab(b.TempDir(), SlabConfig{SlotBytes: benchSlotBytes, SegmentSlots: 256})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { s.Close() })
		return s
	case "slab-mmap":
		s, err := NewSlab(b.TempDir(), SlabConfig{SlotBytes: benchSlotBytes, SegmentSlots: 256, Mmap: true})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { s.Close() })
		return s
	case "tiered":
		// Over the pread slab: a cold store that lends (mmap) leaves the
		// tier empty by design, so there would be nothing to measure.
		cold, err := NewSlab(b.TempDir(), SlabConfig{SlotBytes: benchSlotBytes, SegmentSlots: 256})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { cold.Close() })
		// Budget covers the whole benchmark working set, so steady
		// state is all hot hits — the tier's best case, measured
		// against the slab's pread path.
		return NewTiered(cold, TieredConfig{HotBytes: 64 << 20, Stripes: 8})
	}
	b.Fatalf("unknown store kind %q", kind)
	return nil
}

var benchStoreKinds = []string{"mem", "fs", "slab", "slab-mmap", "tiered"}

// BenchmarkStoreGetBorrow measures the zero-copy read path per
// borrow-capable backend (mmap slab: page-cache slice; tiered: RAM hot
// hit). The first pass over the working set promotes (one copying Get:
// the tier's cold store cannot lend) or faults in; steady state must be
// allocation-free.
func BenchmarkStoreGetBorrow(b *testing.B) {
	for _, kind := range []string{"mem", "slab-mmap", "tiered"} {
		b.Run(kind, func(b *testing.B) {
			s := benchOpen(b, kind)
			bg, ok := s.(BorrowGetter)
			if !ok {
				b.Fatalf("%s is not a BorrowGetter", kind)
			}
			data := benchPayload()
			ids := benchIDs()
			var sink byte
			for _, id := range ids {
				if err := s.Put(id, data); err != nil {
					b.Fatal(err)
				}
				if _, err := s.Get(id, nil); err != nil { // promotes into a tier
					b.Fatal(err)
				}
				br, err := bg.GetBorrow(id) // faults a mapping in
				if err != nil {
					b.Fatal(err)
				}
				sink ^= br.Data[0]
				br.Release()
			}
			b.ReportAllocs()
			b.SetBytes(benchSlotBytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				br, err := bg.GetBorrow(ids[i%len(ids)])
				if err != nil {
					b.Fatal(err)
				}
				sink ^= br.Data[0]
				br.Release()
			}
			_ = sink
		})
	}
}

func BenchmarkStorePut(b *testing.B) {
	for _, kind := range benchStoreKinds {
		b.Run(kind, func(b *testing.B) {
			s := benchOpen(b, kind)
			data := benchPayload()
			ids := benchIDs()
			b.SetBytes(benchSlotBytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Put(ids[i%len(ids)], data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkStoreGet(b *testing.B) {
	for _, kind := range benchStoreKinds {
		b.Run(kind, func(b *testing.B) {
			s := benchOpen(b, kind)
			data := benchPayload()
			ids := benchIDs()
			for _, id := range ids {
				if err := s.Put(id, data); err != nil {
					b.Fatal(err)
				}
			}
			buf := make([]byte, 0, benchSlotBytes)
			b.SetBytes(benchSlotBytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				buf, err = s.Get(ids[i%len(ids)], buf[:0])
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreDelete measures one put+delete cycle per op (a delete
// needs something present to remove; the put cost is identical across
// iterations so relative store numbers stay meaningful).
func BenchmarkStoreDelete(b *testing.B) {
	for _, kind := range benchStoreKinds {
		b.Run(kind, func(b *testing.B) {
			s := benchOpen(b, kind)
			data := benchPayload()
			ids := benchIDs()
			b.ReportAllocs()
			b.ResetTimer()
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
	}
}

// BenchmarkStorePutStream measures the streaming fill path per
// StreamPutter backend: the payload pumped through a scratch buffer a
// quarter of its size, the shape of an origin body flowing through the
// edge's fixed fill buffer straight into the store.
func BenchmarkStorePutStream(b *testing.B) {
	for _, kind := range []string{"mem", "fs", "slab", "tiered"} {
		b.Run(kind, func(b *testing.B) {
			s := benchOpen(b, kind)
			sp, ok := s.(StreamPutter)
			if !ok {
				b.Fatalf("%s is not a StreamPutter", kind)
			}
			data := benchPayload()
			ids := benchIDs()
			scratch := make([]byte, benchSlotBytes/4)
			r := bytes.NewReader(nil)
			b.SetBytes(benchSlotBytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Reset(data)
				if _, err := sp.PutStream(ids[i%len(ids)], r, benchSlotBytes, scratch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreGetSection measures the kernel serve path's store half:
// resolving a chunk to a pinned file section plus one positioned read
// (what sendfile replaces with an in-kernel copy). The slab's half is
// a pool checkout, 0 allocs (TestSlabSectionZeroAllocs pins it); fs
// opens a file per section.
func BenchmarkStoreGetSection(b *testing.B) {
	for _, kind := range []string{"fs", "slab"} {
		b.Run(kind, func(b *testing.B) {
			s := benchOpen(b, kind)
			sg, ok := s.(SectionGetter)
			if !ok {
				b.Fatalf("%s is not a SectionGetter", kind)
			}
			data := benchPayload()
			ids := benchIDs()
			for _, id := range ids {
				if err := s.Put(id, data); err != nil {
					b.Fatal(err)
				}
			}
			buf := make([]byte, benchSlotBytes)
			b.SetBytes(benchSlotBytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sec, err := sg.GetSection(ids[i%len(ids)])
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sec.File().ReadAt(buf, sec.Offset()); err != nil {
					sec.Release()
					b.Fatal(err)
				}
				sec.Release()
			}
		})
	}
}

// BenchmarkStoreRecoveryScan measures a cold open over a populated
// store: the FS directory walk vs the slab sequential header scan.
// (Mem is volatile — there is nothing to recover.)
func BenchmarkStoreRecoveryScan(b *testing.B) {
	data := benchPayload()
	ids := benchIDs()
	b.Run("fs", func(b *testing.B) {
		dir := b.TempDir()
		s, err := NewFS(dir)
		if err != nil {
			b.Fatal(err)
		}
		for _, id := range ids {
			if err := s.Put(id, data); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, err := NewFS(dir)
			if err != nil {
				b.Fatal(err)
			}
			if r.Len() != len(ids) {
				b.Fatalf("recovered %d chunks, want %d", r.Len(), len(ids))
			}
		}
	})
	b.Run("slab", func(b *testing.B) {
		dir := b.TempDir()
		cfg := SlabConfig{SlotBytes: benchSlotBytes, SegmentSlots: 256}
		s, err := NewSlab(dir, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, id := range ids {
			if err := s.Put(id, data); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, err := NewSlab(dir, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if r.Len() != len(ids) {
				b.Fatalf("recovered %d chunks, want %d", r.Len(), len(ids))
			}
			r.Close()
		}
	})
}
