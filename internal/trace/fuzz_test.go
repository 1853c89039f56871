package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"videocdn/internal/chunk"
)

// FuzzTextReader feeds arbitrary bytes to the text parser: it must
// never panic, and anything it accepts must survive a
// write-read round trip unchanged.
func FuzzTextReader(f *testing.F) {
	f.Add([]byte("10 7 0 99\n20 8 5 10\n"))
	f.Add([]byte("# comment\n\n1 1 0 0\n"))
	f.Add([]byte("garbage line"))
	f.Add([]byte("1 2 3"))
	f.Add([]byte("-1 -2 -3 -4\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		reqs, err := ReadText(bytes.NewReader(data))
		if err != nil {
			return // rejected input is fine; panicking is not
		}
		var buf bytes.Buffer
		if err := WriteAll(NewTextWriter(&buf), reqs); err != nil {
			t.Fatalf("accepted requests failed to re-encode: %v", err)
		}
		got, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("re-encoded trace failed to parse: %v", err)
		}
		if len(got) != len(reqs) {
			t.Fatalf("round trip changed length: %d -> %d", len(reqs), len(got))
		}
		for i := range got {
			if got[i] != reqs[i] {
				t.Fatalf("round trip changed request %d: %v -> %v", i, reqs[i], got[i])
			}
		}
	})
}

// FuzzColumnarTrace feeds arbitrary bytes to the columnar segment
// reader as a whole segment file: it must never panic and must never
// silently drop requests — any input it accepts must stream exactly
// the request count its trailer declares, in valid non-decreasing time
// order. Mutated and truncated real segments are in the seed corpus.
func FuzzColumnarTrace(f *testing.F) {
	// Seed with a real segment plus adversarial variants.
	seg := buildFuzzSegment(f)
	f.Add(seg)
	f.Add(seg[:len(seg)/2])                 // truncated mid-file
	f.Add(seg[:len(seg)-5])                 // truncated trailer
	f.Add(append([]byte{}, segMagic[:]...)) // header only
	f.Add([]byte{})
	flipped := append([]byte(nil), seg...)
	flipped[len(flipped)/3] ^= 0x40 // corrupt a payload byte
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		// Run the production ReadAt path over the raw bytes (a disk
		// round trip per exec would throttle the fuzzer to nothing).
		sc, err := newSegCursor(bytes.NewReader(data), int64(len(data)), nil)
		if err != nil {
			return // rejected input is fine; panicking is not
		}
		declared := sc.Requests()
		var req Request
		var streamed uint64
		var lastTime int64
		accepted := true
		for {
			ok, err := sc.Next(&req)
			if err != nil {
				accepted = false // rejected mid-stream: fine
				break
			}
			if !ok {
				break
			}
			if req.End < req.Start {
				t.Fatalf("cursor produced invalid request %+v", req)
			}
			if streamed > 0 && req.Time < lastTime {
				t.Fatalf("cursor went back in time: %d after %d", req.Time, lastTime)
			}
			lastTime = req.Time
			streamed++
			if streamed > declared {
				t.Fatalf("cursor streamed %d requests but trailer declares %d", streamed, declared)
			}
		}
		if err := sc.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		// The no-silent-drop invariant: a fully accepted segment must
		// deliver every request the trailer promised.
		if accepted && streamed != declared {
			t.Fatalf("accepted segment silently dropped requests: streamed %d, trailer declares %d", streamed, declared)
		}
	})
}

// buildFuzzSegment writes one small real segment file and returns its
// bytes.
func buildFuzzSegment(f *testing.F) []byte {
	f.Helper()
	dir := f.TempDir()
	dw, err := CreateDir(dir, DirConfig{Shards: 1, BlockRequests: 8})
	if err != nil {
		f.Fatal(err)
	}
	for i := int64(0); i < 30; i++ {
		req := Request{Time: i / 3, Video: 1 + chunk.VideoID(i%5), Start: i * 10, End: i*10 + 99}
		if err := dw.Write(req); err != nil {
			f.Fatal(err)
		}
	}
	if err := dw.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, segFileName(0, 0)))
	if err != nil {
		f.Fatal(err)
	}
	return data
}
