package trace

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"videocdn/internal/chunk"
)

// genRequests builds a deterministic time-ordered trace with timestamp
// ties and a spread of video IDs and ranges.
func genRequests(n int, seed int64) []Request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]Request, n)
	t := int64(0)
	for i := range reqs {
		if rng.Intn(3) > 0 { // ~1/3 of requests tie on timestamp
			t += int64(rng.Intn(5))
		}
		start := int64(rng.Intn(1 << 20))
		reqs[i] = Request{
			Time:  t,
			Video: chunk.VideoID(rng.Intn(500) + 1),
			Start: start,
			End:   start + int64(rng.Intn(8<<20)),
		}
	}
	return reqs
}

func writeDir(t *testing.T, dir string, reqs []Request, cfg DirConfig) {
	t.Helper()
	w, err := CreateDir(dir, cfg)
	if err != nil {
		t.Fatalf("CreateDir: %v", err)
	}
	for _, r := range reqs {
		if err := w.Write(r); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func drain(t *testing.T, c Cursor) []Request {
	t.Helper()
	defer c.Close()
	var out []Request
	var r Request
	for {
		ok, err := c.Next(&r)
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

func TestColumnarRoundTripSequential(t *testing.T) {
	reqs := genRequests(10_000, 42)
	dir := t.TempDir()
	// Small blocks so the test crosses many block boundaries.
	writeDir(t, dir, reqs, DirConfig{BlockRequests: 64})
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	if d.Len() != int64(len(reqs)) {
		t.Fatalf("Len = %d, want %d", d.Len(), len(reqs))
	}
	lo, hi, known := d.TimeSpan()
	if !known || lo != reqs[0].Time || hi != reqs[len(reqs)-1].Time {
		t.Fatalf("TimeSpan = (%d,%d,%v), want (%d,%d,true)", lo, hi, known, reqs[0].Time, reqs[len(reqs)-1].Time)
	}
	if m := d.Manifest(); m.ShardCount != 1 || len(m.Segments) != 1 {
		t.Fatalf("manifest has %d shards and %d segments, want 1 and 1", m.ShardCount, len(m.Segments))
	}
	cur, err := d.Cursor()
	if err != nil {
		t.Fatalf("Cursor: %v", err)
	}
	got := drain(t, cur)
	if len(got) != len(reqs) {
		t.Fatalf("got %d requests, want %d", len(got), len(reqs))
	}
	for i := range got {
		if got[i] != reqs[i] {
			t.Fatalf("request %d = %+v, want %+v", i, got[i], reqs[i])
		}
	}
}

// TestColumnarReadsShardedDirectory writes a directory the way older
// builds did with more than one shard: each part split over several
// segment files by chunk.ShardOf, every segment of a part sharing the
// part's sequence numbers, and the manifest counting the shards. The
// cursor must merge it back into the exact write order.
func TestColumnarReadsShardedDirectory(t *testing.T) {
	const shards, parts = 8, 2
	in := [parts][]Request{genRequests(6_000, 7), genRequests(6_000, 8)}
	dir := t.TempDir()
	man := Manifest{Format: ManifestFormat, Version: 1, ShardCount: shards, Parts: parts, BlockRequests: 128}
	first := true
	for p, reqs := range in {
		segs := make([]*segWriter, shards)
		for s := range segs {
			sw, err := newSegWriter(filepath.Join(dir, segFileName(s, p)), s, p, man.BlockRequests)
			if err != nil {
				t.Fatal(err)
			}
			segs[s] = sw
		}
		for seq, r := range reqs {
			if err := segs[chunk.ShardOf(r.Video, shards)].add(r, uint64(seq)); err != nil {
				t.Fatal(err)
			}
		}
		for s, sw := range segs {
			if err := sw.finish(); err != nil {
				t.Fatal(err)
			}
			if sw.requests == 0 {
				t.Fatalf("part %d shard %d is empty; the test needs every segment used", p, s)
			}
			man.Segments = append(man.Segments, SegmentInfo{
				File: segFileName(s, p), Shard: s, Part: p,
				Requests: sw.requests, MinTime: sw.minTime, MaxTime: sw.maxTime,
			})
			man.Requests += sw.requests
			if first || sw.minTime < man.MinTime {
				man.MinTime = sw.minTime
			}
			if first || sw.maxTime > man.MaxTime {
				man.MaxTime = sw.maxTime
			}
			first = false
		}
	}
	data, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), data, 0o644); err != nil {
		t.Fatal(err)
	}

	src, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	got, err := Materialize(src)
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	// (Time, Part, Seq) order: a stable merge by time, part 0 first.
	want := Merge(in[0], in[1])
	if len(got) != len(want) {
		t.Fatalf("got %d requests, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("request %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestColumnarMultiPart(t *testing.T) {
	// Two parts written independently (as parallel generation would),
	// then read back: the canonical order is (Time, Part, Seq).
	a := genRequests(5_000, 1)
	b := genRequests(5_000, 2)
	dir := t.TempDir()
	dp, err := CreateDirParts(dir, DirConfig{Parts: 2, BlockRequests: 64})
	if err != nil {
		t.Fatalf("CreateDirParts: %v", err)
	}
	for _, r := range a {
		if err := dp.Part(0).Write(r); err != nil {
			t.Fatalf("part 0 Write: %v", err)
		}
	}
	for _, r := range b {
		if err := dp.Part(1).Write(r); err != nil {
			t.Fatalf("part 1 Write: %v", err)
		}
	}
	if err := dp.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	cur, err := d.Cursor()
	if err != nil {
		t.Fatalf("Cursor: %v", err)
	}
	got := drain(t, cur)
	// (Time, Part, Seq) order == stable merge by time with part 0
	// winning ties: exactly what Merge produces.
	want := Merge(a, b)
	if len(got) != len(want) {
		t.Fatalf("got %d requests, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("request %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestColumnarEmptyTrace(t *testing.T) {
	dir := t.TempDir()
	writeDir(t, dir, nil, DirConfig{})
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	if d.Len() != 0 {
		t.Fatalf("Len = %d, want 0", d.Len())
	}
	if _, _, known := d.TimeSpan(); known {
		t.Fatal("TimeSpan known for empty trace")
	}
	cur, err := d.Cursor()
	if err != nil {
		t.Fatalf("Cursor: %v", err)
	}
	if got := drain(t, cur); len(got) != 0 {
		t.Fatalf("empty trace yielded %d requests", len(got))
	}
}

func TestColumnarRejectsOutOfOrder(t *testing.T) {
	dir := t.TempDir()
	w, err := CreateDir(dir, DirConfig{})
	if err != nil {
		t.Fatalf("CreateDir: %v", err)
	}
	if err := w.Write(Request{Time: 10, Video: 1, Start: 0, End: 1}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := w.Write(Request{Time: 9, Video: 1, Start: 0, End: 1}); err == nil {
		t.Fatal("columnar writer accepted out-of-order time")
	}
}

func TestColumnarDetectsCorruption(t *testing.T) {
	reqs := genRequests(2_000, 9)
	dir := t.TempDir()
	writeDir(t, dir, reqs, DirConfig{BlockRequests: 64})
	seg := filepath.Join(dir, segFileName(0, 0))

	corrupt := func(t *testing.T, mutate func(b []byte) []byte) {
		t.Helper()
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatalf("read segment: %v", err)
		}
		mutated := mutate(append([]byte(nil), data...))
		tmp := filepath.Join(t.TempDir(), "seg")
		if err := os.WriteFile(tmp, mutated, 0o644); err != nil {
			t.Fatalf("write segment: %v", err)
		}
		sc, err := openSeg(tmp, nil)
		if err != nil {
			return // rejected at open: fine
		}
		defer sc.Close()
		var r Request
		n := uint64(0)
		for {
			ok, err := sc.Next(&r)
			if err != nil {
				return // rejected while streaming: fine
			}
			if !ok {
				break
			}
			n++
		}
		// If the mutated file still parses fully, it must not have
		// silently dropped requests.
		if n != sc.Requests() {
			t.Fatalf("silently dropped requests: streamed %d, trailer says %d", n, sc.Requests())
		}
	}

	t.Run("flip-payload-byte", func(t *testing.T) {
		corrupt(t, func(b []byte) []byte { b[segHeaderSize+blockHeaderSize+3] ^= 0x40; return b })
	})
	t.Run("truncate", func(t *testing.T) {
		corrupt(t, func(b []byte) []byte { return b[:len(b)/2] })
	})
	t.Run("truncate-trailer", func(t *testing.T) {
		corrupt(t, func(b []byte) []byte { return b[:len(b)-10] })
	})
	t.Run("flip-index-byte", func(t *testing.T) {
		corrupt(t, func(b []byte) []byte { b[len(b)-segTrailerSize-5] ^= 0x01; return b })
	})
}

// TestCursorNextZeroAllocs pins the replay engine's innermost loop: once
// a cursor has loaded its first block (where the column slices and the
// read buffer are allocated), Next allocates nothing — across block
// boundaries, for the in-memory slice cursor and for the columnar
// reader.
func TestCursorNextZeroAllocs(t *testing.T) {
	const blockRequests = 64
	reqs := genRequests(40*blockRequests, 5)
	dir := filepath.Join(t.TempDir(), "trace")
	writeDir(t, dir, reqs, DirConfig{BlockRequests: blockRequests})

	open := map[string]func() (Cursor, error){
		"slice": func() (Cursor, error) { return Slice(reqs).Cursor() },
		"columnar-pread": func() (Cursor, error) {
			d, err := OpenDir(dir)
			if err != nil {
				return nil, err
			}
			return d.Cursor()
		},
	}
	for name, openCursor := range open {
		t.Run(name, func(t *testing.T) {
			cur, err := openCursor()
			if err != nil {
				t.Fatal(err)
			}
			defer cur.Close()
			var req Request
			next := func() {
				if ok, err := cur.Next(&req); !ok || err != nil {
					t.Fatalf("Next = %v, %v before the end of the trace", ok, err)
				}
			}
			next() // loads the first block
			// 30 blocks' worth of requests: the run crosses block
			// boundaries and ends short of the trace.
			if allocs := testing.AllocsPerRun(30*blockRequests, next); allocs != 0 {
				t.Errorf("Next allocates %v times per request, want 0", allocs)
			}
		})
	}
}

// TestOpen pins the one way a trace is opened by path: a text file and
// a columnar directory holding the same requests open to equal
// streams, and what is neither fails with an error naming the path.
func TestOpen(t *testing.T) {
	a, b := genRequests(2_500, 3), genRequests(2_500, 4)
	root := t.TempDir()

	dir := filepath.Join(root, "trace.dir")
	dp, err := CreateDirParts(dir, DirConfig{Parts: 2, BlockRequests: 256})
	if err != nil {
		t.Fatal(err)
	}
	for p, part := range [][]Request{a, b} {
		for _, r := range part {
			if err := dp.Part(p).Write(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := dp.Close(); err != nil {
		t.Fatal(err)
	}
	// A two-part directory reads back in (Time, Part, Seq) order: the
	// stable time merge of its parts.
	reqs := Merge(a, b)
	text := filepath.Join(root, "trace.txt")
	f, err := os.Create(text)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteAll(NewTextWriter(f), reqs); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var streams [][]Request
	for _, path := range []string{text, dir} {
		src, err := Open(path)
		if err != nil {
			t.Fatalf("Open(%s): %v", path, err)
		}
		if _, isDir := src.(*Dir); isDir != (path == dir) {
			t.Errorf("Open(%s) returned %T", path, src)
		}
		got, err := Materialize(src)
		if err != nil {
			t.Fatalf("Materialize(%s): %v", path, err)
		}
		streams = append(streams, got)
	}
	if len(streams[0]) != len(reqs) || !reflect.DeepEqual(streams[0], streams[1]) {
		t.Fatalf("text and directory streams differ (%d vs %d requests)", len(streams[0]), len(streams[1]))
	}

	noManifest := filepath.Join(root, "empty.dir")
	if err := os.Mkdir(noManifest, 0o755); err != nil {
		t.Fatal(err)
	}
	oldBinary := filepath.Join(root, "old.trace")
	if err := os.WriteFile(oldBinary, []byte("VCT1\x00\x07\x00\x63\x05\x08"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{noManifest, oldBinary, filepath.Join(root, "missing")} {
		if _, err := Open(path); err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("Open(%s) = %v, want an error naming the path", path, err)
		}
	}
}
