package edge

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"videocdn/internal/chunk"
)

// FuzzParseRange fuzzes the range-request surface — the Range header
// and the start/end query parameters — through both the parser and the
// origin's serve path, asserting they agree: an input parseRange
// rejects must serve as 416, an input it accepts must serve exactly
// the parsed byte window (status, length and content), and nothing may
// panic. Seed corpus: testdata/fuzz/FuzzParseRange.
func FuzzParseRange(f *testing.F) {
	seeds := []struct {
		header, start, end string
		size               int64
	}{
		{"", "", "", 1000},
		{"bytes=0-99", "", "", 1000},
		{"bytes=100-", "", "", 1000},
		{"bytes=-100", "", "", 1000},
		{"bytes=-0", "", "", 1000},
		{"bytes=0-0", "", "", 1},
		{"bytes=5-1", "", "", 1000},
		{"bytes=0-1,3-4", "", "", 1000},
		{"frames=1-2", "", "", 1000},
		{"bytes=a-b", "", "", 1000},
		{"bytes=+5-7", "", "", 1000},
		{"bytes= 0-5", "", "", 1000},
		{"bytes=18446744073709551616-2", "", "", 1000},
		{"", "0", "99", 1000},
		{"", "64", "", 129},
		{"", "", "63", 129},
		{"", "-1", "5", 1000},
		{"", "9", "3", 1000},
		{"", "1e3", "2000", 1000},
		{"bytes=0-", "7", "8", 4096}, // header wins over query params
	}
	for _, s := range seeds {
		f.Add(s.header, s.start, s.end, s.size)
	}
	f.Fuzz(func(t *testing.T, header, startQ, endQ string, size int64) {
		// Normalize the size into (0, 64 KiB] so content verification
		// stays cheap; the parser sees every size through clamping.
		size = size&0xFFFF + 1
		const chunkSize = 64
		const v = chunk.VideoID(7)

		target := fmt.Sprintf("/video?v=%d", v)
		if startQ != "" {
			target += "&start=" + url.QueryEscape(startQ)
		}
		if endQ != "" {
			target += "&end=" + url.QueryEscape(endQ)
		}
		req := httptest.NewRequest(http.MethodGet, target, nil)
		if header != "" {
			req.Header.Set("Range", header)
		}

		b0, b1, err := parseRange(req, size) // must not panic

		origin, oerr := NewOrigin(MapCatalog{v: size}, chunkSize)
		if oerr != nil {
			t.Fatal(oerr)
		}
		rec := httptest.NewRecorder()
		origin.ServeHTTP(rec, req)

		if err != nil {
			if rec.Code != http.StatusRequestedRangeNotSatisfiable {
				t.Fatalf("parse rejects (%v) but serve answered %d (Range %q start %q end %q size %d)",
					err, rec.Code, header, startQ, endQ, size)
			}
			return
		}
		if b0 < 0 || b0 > b1 || b1 >= size {
			t.Fatalf("parse accepted out-of-bounds [%d,%d] for size %d (Range %q start %q end %q)",
				b0, b1, size, header, startQ, endQ)
		}
		wantStatus := http.StatusOK
		if b0 != 0 || b1 != size-1 {
			wantStatus = http.StatusPartialContent
		}
		if rec.Code != wantStatus {
			t.Fatalf("parse accepted [%d,%d] but serve answered %d, want %d (Range %q start %q end %q size %d)",
				b0, b1, rec.Code, wantStatus, header, startQ, endQ, size)
		}
		body := rec.Body.Bytes()
		if int64(len(body)) != b1-b0+1 {
			t.Fatalf("served %d bytes for range [%d,%d]", len(body), b0, b1)
		}
		want := make([]byte, size)
		for c := int64(0); c*chunkSize < size; c++ {
			lo, hi := c*chunkSize, (c+1)*chunkSize
			if hi > size {
				hi = size
			}
			ChunkData(v, uint32(c), want[lo:hi])
		}
		for i, b := range body {
			if b != want[b0+int64(i)] {
				t.Fatalf("served byte %d of range [%d,%d] diverges from content function", i, b0, b1)
			}
		}
	})
}

// FuzzOriginRange fuzzes the origin's content writer through both
// routes: for any video size, chunk size and byte range, the /video
// body and every /chunk body (the short last chunk included) must
// equal the concatenation of reference chunks — whatever the range's
// alignment to content words, pieces and chunks.
func FuzzOriginRange(f *testing.F) {
	f.Add(uint32(7), int64(1000), int64(64), int64(0), int64(999))
	f.Add(uint32(1), int64(1), int64(1), int64(0), int64(0))
	f.Add(uint32(9), int64(3*originPiece+5), int64(originPiece+3), int64(originPiece-1), int64(2*originPiece+9))
	f.Add(uint32(3), int64(200_000), int64(70_001), int64(69_999), int64(140_003))
	f.Add(uint32(0xFFFFFFFF), int64(4097), int64(4096), int64(4095), int64(4096))
	f.Fuzz(func(t *testing.T, vid uint32, size, chunkSize, b0, b1 int64) {
		// Up to 256 KiB of video in chunks of up to 128 KiB: several
		// pieces per chunk and several chunks per video stay reachable.
		size = size&(256<<10-1) + 1
		chunkSize = chunkSize&(128<<10-1) + 1
		if size/chunkSize > 64 {
			chunkSize = size/64 + 1 // bound the /chunk requests per input
		}
		b0 &= 256<<10 - 1
		b1 &= 256<<10 - 1
		if b0 > b1 {
			b0, b1 = b1, b0
		}
		if b0 >= size {
			b0 = size - 1
		}
		if b1 >= size {
			b1 = size - 1
		}
		v := chunk.VideoID(vid)
		o, err := NewOrigin(MapCatalog{v: size}, chunkSize)
		if err != nil {
			t.Fatal(err)
		}
		get := func(target string) []byte {
			rec := httptest.NewRecorder()
			o.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
			if rec.Code != http.StatusOK && rec.Code != http.StatusPartialContent {
				t.Fatalf("%s: status %d (size %d, chunk size %d)", target, rec.Code, size, chunkSize)
			}
			return rec.Body.Bytes()
		}
		body := get(fmt.Sprintf("/video?v=%d&start=%d&end=%d", v, b0, b1))
		if !bytes.Equal(body, refRange(v, chunkSize, b0, b1)) {
			t.Fatalf("/video [%d,%d] differs from the reference (size %d, chunk size %d)", b0, b1, size, chunkSize)
		}
		for c := int64(0); c*chunkSize < size; c++ {
			body := get(fmt.Sprintf("/chunk?v=%d&c=%d", v, c))
			if !bytes.Equal(body, refRange(v, chunkSize, c*chunkSize, min((c+1)*chunkSize, size)-1)) {
				t.Fatalf("/chunk %d differs from the reference (size %d, chunk size %d)", c, size, chunkSize)
			}
		}
	})
}
