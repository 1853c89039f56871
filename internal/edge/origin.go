package edge

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"videocdn/internal/chunk"
)

// Origin is the upstream content server edges cache-fill from. It
// serves deterministic synthetic bytes for every video in its catalog.
//
// Routes:
//
//	GET /video?v=<video>             the video, honoring a Range header or
//	                                 start/end parameters (end past EOF is
//	                                 clamped); generated piece by piece, so
//	                                 only the range costs anything
//	GET /size?v=<video>              the video size in bytes (text)
//	GET /chunk?v=<video>&c=<index>   one whole chunk (possibly short at EOF)
//
// An edge fills a run of missing chunks with one /video range request,
// start and end on chunk boundaries, and a lone chunk with /chunk,
// after one /size lookup per video.
type Origin struct {
	catalog   Catalog
	chunkSize int64
	mux       *http.ServeMux

	// scratch pools the fixed pieces content is synthesised into on
	// its way to the socket; scratchOut counts the pieces checked out.
	scratch    sync.Pool
	scratchOut atomic.Int64
}

// originPiece is how much content the origin synthesises per Write:
// small enough that the response header and first bytes leave after
// microseconds of generation and the receiver works on one piece while
// the next is made, large enough to amortise the write syscall.
const originPiece = 32 << 10

// NewOrigin builds an origin over the catalog with the given chunk
// size.
func NewOrigin(catalog Catalog, chunkSize int64) (*Origin, error) {
	if catalog == nil {
		return nil, fmt.Errorf("edge: nil catalog")
	}
	if chunkSize <= 0 {
		return nil, fmt.Errorf("edge: chunk size must be positive")
	}
	o := &Origin{catalog: catalog, chunkSize: chunkSize, mux: http.NewServeMux()}
	o.mux.HandleFunc("/chunk", o.handleChunk)
	o.mux.HandleFunc("/size", o.handleSize)
	o.mux.HandleFunc("/video", o.handleVideo)
	return o, nil
}

// ServeHTTP implements http.Handler.
func (o *Origin) ServeHTTP(w http.ResponseWriter, r *http.Request) { o.mux.ServeHTTP(w, r) }

func parseVideo(r *http.Request) (chunk.VideoID, error) {
	v, err := strconv.ParseUint(queryParam(r, "v"), 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad or missing video id: %v", err)
	}
	return chunk.VideoID(v), nil
}

// queryParam returns one raw query parameter's value without building
// the url.Values map — r.URL.Query() allocates a map, slices and
// strings on every call, which the serve hot path runs once per
// request. The hot parameters (v, c, start, end, chunks) are plain
// digits; a value carrying URL escapes falls back to the full parser.
func queryParam(r *http.Request, key string) string {
	q := r.URL.RawQuery
	for len(q) > 0 {
		pair := q
		if i := strings.IndexByte(q, '&'); i >= 0 {
			pair, q = q[:i], q[i+1:]
		} else {
			q = ""
		}
		eq := strings.IndexByte(pair, '=')
		if eq < 0 || pair[:eq] != key {
			continue
		}
		v := pair[eq+1:]
		if strings.IndexByte(v, '%') >= 0 || strings.IndexByte(v, '+') >= 0 {
			return r.URL.Query().Get(key)
		}
		return v
	}
	return ""
}

func (o *Origin) handleChunk(w http.ResponseWriter, r *http.Request) {
	v, err := parseVideo(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c, err := strconv.ParseUint(queryParam(r, "c"), 10, 32)
	if err != nil {
		http.Error(w, "bad or missing chunk index", http.StatusBadRequest)
		return
	}
	size, ok := o.catalog.SizeOf(v)
	if !ok {
		http.Error(w, "no such video", http.StatusNotFound)
		return
	}
	start := int64(c) * o.chunkSize
	if start >= size {
		http.Error(w, "chunk beyond end of video", http.StatusRequestedRangeNotSatisfiable)
		return
	}
	end := min(start+o.chunkSize, size) - 1
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(end-start+1, 10))
	o.writeContent(w, v, start, end)
}

// writeContent streams bytes [b0, b1] of video v to w, one piece of
// synthetic content at a time: no buffer scales with the chunk or the
// range, and nothing outside the range is generated. It stops at the
// first write error (the client went away).
func (o *Origin) writeContent(w io.Writer, v chunk.VideoID, b0, b1 int64) {
	piece, _ := o.scratch.Get().(*[originPiece]byte)
	if piece == nil {
		piece = new([originPiece]byte)
	}
	o.scratchOut.Add(1)
	defer func() {
		o.scratchOut.Add(-1)
		o.scratch.Put(piece)
	}()
	for pos := b0; pos <= b1; {
		c := pos / o.chunkSize
		off := pos - c*o.chunkSize
		n := min(o.chunkSize-off, b1+1-pos, originPiece)
		chunkDataAt(v, uint32(c), off, piece[:n])
		if _, err := w.Write(piece[:n]); err != nil {
			return
		}
		pos += n
	}
}

func (o *Origin) handleSize(w http.ResponseWriter, r *http.Request) {
	v, err := parseVideo(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	size, ok := o.catalog.SizeOf(v)
	if !ok {
		http.Error(w, "no such video", http.StatusNotFound)
		return
	}
	fmt.Fprintf(w, "%d", size)
}

func (o *Origin) handleVideo(w http.ResponseWriter, r *http.Request) {
	v, err := parseVideo(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	size, ok := o.catalog.SizeOf(v)
	if !ok {
		http.Error(w, "no such video", http.StatusNotFound)
		return
	}
	b0, b1, err := parseRange(r, size)
	if err != nil {
		http.Error(w, err.Error(), http.StatusRequestedRangeNotSatisfiable)
		return
	}
	w.Header().Set("Content-Type", "video/mp4")
	w.Header().Set("Content-Length", strconv.FormatInt(b1-b0+1, 10))
	if b0 != 0 || b1 != size-1 {
		w.Header().Set("Content-Range", contentRange(b0, b1, size))
		w.WriteHeader(http.StatusPartialContent)
	}
	o.writeContent(w, v, b0, b1)
}

// contentRange formats a Content-Range header value.
func contentRange(b0, b1, size int64) string {
	buf := make([]byte, 0, 72)
	buf = append(buf, "bytes "...)
	buf = strconv.AppendInt(buf, b0, 10)
	buf = append(buf, '-')
	buf = strconv.AppendInt(buf, b1, 10)
	buf = append(buf, '/')
	buf = strconv.AppendInt(buf, size, 10)
	return string(buf)
}

// parseRange interprets a Range header (or start/end query parameters)
// against the video size, defaulting to the whole video. The
// single-range forms of RFC 7233 are supported: "bytes=a-b",
// open-ended "bytes=a-", and the suffix form "bytes=-n" (the final n
// bytes of the video). Multi-range requests are rejected.
func parseRange(r *http.Request, size int64) (b0, b1 int64, err error) {
	b0, b1 = 0, size-1
	if h := r.Header.Get("Range"); h != "" {
		spec, ok := strings.CutPrefix(h, "bytes=")
		dash := strings.IndexByte(spec, '-')
		if !ok || dash < 0 || strings.ContainsAny(spec, ", ") {
			return 0, 0, fmt.Errorf("unparseable Range %q", h)
		}
		first, last := spec[:dash], spec[dash+1:]
		if first == "" {
			// Suffix range: the last n bytes (RFC 7233 §2.1).
			n, perr := strconv.ParseInt(last, 10, 64)
			if perr != nil || n <= 0 {
				return 0, 0, fmt.Errorf("unsatisfiable suffix Range %q", h)
			}
			if n > size {
				n = size
			}
			b0, b1 = size-n, size-1
		} else {
			if b0, err = strconv.ParseInt(first, 10, 64); err != nil {
				return 0, 0, fmt.Errorf("unparseable Range %q", h)
			}
			if last != "" {
				if b1, err = strconv.ParseInt(last, 10, 64); err != nil {
					return 0, 0, fmt.Errorf("unparseable Range %q", h)
				}
			}
		}
	} else {
		if qs := queryParam(r, "start"); qs != "" {
			if b0, err = strconv.ParseInt(qs, 10, 64); err != nil {
				return 0, 0, fmt.Errorf("bad start: %v", err)
			}
		}
		if qe := queryParam(r, "end"); qe != "" {
			if b1, err = strconv.ParseInt(qe, 10, 64); err != nil {
				return 0, 0, fmt.Errorf("bad end: %v", err)
			}
		}
	}
	if b1 >= size {
		b1 = size - 1
	}
	if b0 < 0 || b0 > b1 {
		return 0, 0, fmt.Errorf("range [%d,%d] out of bounds for size %d", b0, b1, size)
	}
	return b0, b1, nil
}
