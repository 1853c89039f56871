// Package chunk defines the identifiers and arithmetic for fixed-size
// video chunks.
//
// Following Section 4 of the paper, a video file is divided into chunks
// of a fixed size K (2 MB by default). A request carries a video ID and
// an inclusive byte range [b0, b1]; the corresponding chunk range is
// [floor(b0/K), floor(b1/K)] and chunks are always fetched, stored and
// evicted whole, even when requested partially.
package chunk

import "fmt"

// DefaultSize is the chunk size K used throughout the paper's
// experiments: 2 MB.
const DefaultSize int64 = 2 << 20

// VideoID identifies a video file. Production traces are anonymized to
// opaque numeric IDs, which we model directly.
type VideoID uint64

// ID identifies one chunk: a video plus a zero-based chunk index within
// that video.
type ID struct {
	Video VideoID
	Index uint32
}

// String renders the chunk as "video/index" for logs and errors.
func (id ID) String() string { return fmt.Sprintf("%d/%d", id.Video, id.Index) }

// Key packs the chunk identity into a single comparable uint64 suitable
// for dense hash-map keys. Video IDs are effectively unbounded in a
// real catalog, but any catalog addressable by this library fits in 32
// bits of video ID; Pack panics if the video ID overflows so that a
// corrupted trace fails loudly rather than silently aliasing chunks.
func (id ID) Key() uint64 {
	if id.Video > 0xFFFFFFFF {
		panic("chunk: video ID exceeds 32 bits; cannot pack")
	}
	return uint64(id.Video)<<32 | uint64(id.Index)
}

// FromKey is the inverse of Key.
func FromKey(k uint64) ID {
	return ID{Video: VideoID(k >> 32), Index: uint32(k & 0xFFFFFFFF)}
}

// ShardOf returns the index of the hash bucket owning video v when the
// video-ID space is divided n ways (n must be a positive power of two).
// The sharded cache group and the parallel replay engine both route
// through it, so they can never disagree about which bucket owns a
// video; workload.SplitProfile uses it to derive part seeds. The hash
// is the splitmix64 finalizer, so adjacent IDs scatter.
func ShardOf(v VideoID, n int) int {
	x := uint64(v) + 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	return int(x & uint64(n-1))
}

// ByteRange is an inclusive byte interval [Start, End], as carried by a
// request (the paper's [R.b0, R.b1]).
type ByteRange struct {
	Start int64
	End   int64
}

// Valid reports whether the range is well-formed: 0 <= Start <= End.
func (r ByteRange) Valid() bool { return r.Start >= 0 && r.Start <= r.End }

// Bytes returns the number of bytes covered by the inclusive range.
func (r ByteRange) Bytes() int64 { return r.End - r.Start + 1 }

// Range converts the byte range to an inclusive chunk-index range
// [c0, c1] for chunk size k, per Section 4:
// [R.c0, R.c1] = [floor(R.b0/K), floor(R.b1/K)].
func (r ByteRange) Range(k int64) (c0, c1 uint32) {
	if k <= 0 {
		panic("chunk: non-positive chunk size")
	}
	if !r.Valid() {
		panic(fmt.Sprintf("chunk: invalid byte range [%d,%d]", r.Start, r.End))
	}
	return uint32(r.Start / k), uint32(r.End / k)
}

// Count returns the number of chunks spanned by the byte range for
// chunk size k (the paper's |R|_c).
func (r ByteRange) Count(k int64) int {
	c0, c1 := r.Range(k)
	return int(c1-c0) + 1
}

// ChunkBytes returns the total size in bytes of the whole chunks
// spanned by the byte range: (c1-c0+1) * K. This is the volume that a
// cache fill of the full range would ingress.
func (r ByteRange) ChunkBytes(k int64) int64 {
	return int64(r.Count(k)) * k
}

// Chunks returns the chunk IDs spanned by the byte range for video v.
// The slice is freshly allocated; callers may retain it.
func Chunks(v VideoID, r ByteRange, k int64) []ID {
	c0, c1 := r.Range(k)
	out := make([]ID, 0, c1-c0+1)
	for c := c0; c <= c1; c++ {
		out = append(out, ID{Video: v, Index: c})
	}
	return out
}

// NumChunks returns how many chunks a video of sizeBytes occupies at
// chunk size k (the last chunk may be partial on disk but still
// occupies one chunk slot).
func NumChunks(sizeBytes, k int64) int {
	if sizeBytes <= 0 {
		return 0
	}
	return int((sizeBytes + k - 1) / k)
}
