package trace

import (
	"encoding/csv"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"videocdn/internal/chunk"
)

// ImportOptions tune ImportCSV.
type ImportOptions struct {
	// Comma is the field separator (default ',').
	Comma rune
	// RebaseTime shifts timestamps so the earliest request is t=0
	// (recommended: the algorithms only use time differences, and
	// small timestamps encode shorter). Default true-ish:
	// zero value of the struct enables it via DisableRebase=false.
	DisableRebase bool
}

// ImportCSV converts a CSV access log into a request trace. The first
// row must be a header naming, case-insensitively, at least:
//
//	time      — "time", "timestamp" or "ts": unix seconds, or RFC 3339
//	video     — "video", "object", "path" or "url": an integer ID, or
//	            any string (hashed to a stable 32-bit video ID)
//
// and a byte extent via either:
//
//	start+end — "start"/"range_start" and "end"/"range_end" (inclusive)
//	start+bytes — "start" and "bytes"/"size"
//	bytes     — "bytes"/"size" alone (a from-the-beginning request)
//
// Extra columns are ignored. The output is sorted by time (stable), so
// mildly out-of-order logs import cleanly.
func ImportCSV(r io.Reader, opt ImportOptions) ([]Request, error) {
	cr := csv.NewReader(r)
	if opt.Comma != 0 {
		cr.Comma = opt.Comma
	}
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: reading CSV header: %w", err)
	}
	col := map[string]int{}
	for i, h := range header {
		col[strings.ToLower(strings.TrimSpace(h))] = i
	}
	find := func(names ...string) (int, bool) {
		for _, n := range names {
			if i, ok := col[n]; ok {
				return i, true
			}
		}
		return 0, false
	}
	timeCol, ok := find("time", "timestamp", "ts")
	if !ok {
		return nil, fmt.Errorf("trace: CSV has no time column (want time/timestamp/ts)")
	}
	videoCol, ok := find("video", "object", "path", "url")
	if !ok {
		return nil, fmt.Errorf("trace: CSV has no video column (want video/object/path/url)")
	}
	startCol, hasStart := find("start", "range_start")
	endCol, hasEnd := find("end", "range_end")
	bytesCol, hasBytes := find("bytes", "size")
	if !hasEnd && !hasBytes {
		return nil, fmt.Errorf("trace: CSV needs end/range_end or bytes/size to delimit requests")
	}

	var reqs []Request
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		line++
		if err != nil {
			return nil, fmt.Errorf("trace: CSV line %d: %w", line, err)
		}
		get := func(i int) string {
			if i < len(rec) {
				return strings.TrimSpace(rec[i])
			}
			return ""
		}
		t, err := parseTime(get(timeCol))
		if err != nil {
			return nil, fmt.Errorf("trace: CSV line %d: %w", line, err)
		}
		video := parseVideoField(get(videoCol))
		var start, end int64
		if hasStart {
			if start, err = strconv.ParseInt(get(startCol), 10, 64); err != nil {
				return nil, fmt.Errorf("trace: CSV line %d: bad start: %w", line, err)
			}
		}
		switch {
		case hasEnd && get(endCol) != "":
			if end, err = strconv.ParseInt(get(endCol), 10, 64); err != nil {
				return nil, fmt.Errorf("trace: CSV line %d: bad end: %w", line, err)
			}
		case hasBytes:
			n, err := strconv.ParseInt(get(bytesCol), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("trace: CSV line %d: bad bytes: %w", line, err)
			}
			if n < 1 {
				continue // zero-byte responses carry no caching signal
			}
			end = start + n - 1
		default:
			return nil, fmt.Errorf("trace: CSV line %d: no byte extent", line)
		}
		req := Request{Time: t, Video: video, Start: start, End: end}
		if err := req.Validate(); err != nil {
			return nil, fmt.Errorf("trace: CSV line %d: %w", line, err)
		}
		reqs = append(reqs, req)
	}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].Time < reqs[j].Time })
	if !opt.DisableRebase && len(reqs) > 0 {
		base := reqs[0].Time
		for i := range reqs {
			reqs[i].Time -= base
		}
	}
	return reqs, nil
}

// parseTime accepts unix seconds or RFC 3339.
func parseTime(s string) (int64, error) {
	if s == "" {
		return 0, fmt.Errorf("empty time")
	}
	if v, err := strconv.ParseInt(s, 10, 64); err == nil {
		return v, nil
	}
	if ts, err := time.Parse(time.RFC3339, s); err == nil {
		return ts.Unix(), nil
	}
	return 0, fmt.Errorf("unparseable time %q (want unix seconds or RFC 3339)", s)
}

// parseVideoField maps an ID or arbitrary string to a VideoID. String
// names hash via FNV-1a into 32 bits (the packing limit of chunk.ID).
func parseVideoField(s string) chunk.VideoID {
	if v, err := strconv.ParseUint(s, 10, 32); err == nil {
		return chunk.VideoID(v)
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(s))
	return chunk.VideoID(h.Sum32())
}
