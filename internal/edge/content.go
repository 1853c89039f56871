// Package edge turns the caching library into a working HTTP cache
// server: a real `net/http` edge that serves video byte ranges from a
// chunk store, 302-redirects requests its algorithm declines (exactly
// the serve-or-redirect decision of Section 4), and cache-fills
// missing chunks from an origin server.
//
// The package also ships the origin itself, with deterministic
// synthetic video content, so a full CDN line of defense can be stood
// up in a test or on a laptop with no external data.
package edge

import (
	"encoding/binary"

	"videocdn/internal/chunk"
)

// Catalog maps videos to sizes. The origin consults it to bound valid
// byte ranges.
type Catalog interface {
	// SizeOf returns the video's size in bytes, ok=false if the video
	// does not exist.
	SizeOf(v chunk.VideoID) (int64, bool)
}

// DeterministicCatalog is an infinite catalog whose video sizes are a
// pure hash of the video ID, in [MinBytes, MaxBytes) — MaxBytes itself
// never occurs — or exactly MinBytes when MaxBytes <= MinBytes. Every
// video ID exists; the same ID always has the same size and content.
type DeterministicCatalog struct {
	MinBytes, MaxBytes int64
}

// SizeOf implements Catalog.
func (c DeterministicCatalog) SizeOf(v chunk.VideoID) (int64, bool) {
	span := c.MaxBytes - c.MinBytes
	if span <= 0 {
		return c.MinBytes, true
	}
	return c.MinBytes + int64(splitmix64(uint64(v))%uint64(span)), true
}

// MapCatalog is a fixed catalog.
type MapCatalog map[chunk.VideoID]int64

// SizeOf implements Catalog.
func (c MapCatalog) SizeOf(v chunk.VideoID) (int64, bool) {
	sz, ok := c[v]
	return sz, ok
}

// ChunkData writes the deterministic contents of one whole chunk into
// dst (len(dst) = chunk size, or less for the video's final chunk).
// Byte i of chunk c of video v depends only on (v, c, i), so any
// component — origin, edge, test — can verify payloads byte-for-byte.
func ChunkData(v chunk.VideoID, index uint32, dst []byte) {
	chunkDataAt(v, index, 0, dst)
}

// golden is the splitmix64 increment.
const golden = 0x9E3779B97F4A7C15

// chunkDataAt writes bytes [off, off+len(dst)) of chunk (v, index).
// The chunk is a sequence of little-endian 64-bit words, word j being
// mix(seed + (j+1)·golden) with seed = splitmix64(v<<32 ^ index): a
// pure function of (v, index, j), so content can be generated from any
// offset, one word per 8 bytes.
func chunkDataAt(v chunk.VideoID, index uint32, off int64, dst []byte) {
	state := splitmix64(uint64(v)<<32^uint64(index)) + uint64(off/8)*golden
	if r := int(off % 8); r != 0 {
		// Leading bytes of a word the range enters midway.
		state += golden
		word := mix(state) >> (8 * r)
		n := min(8-r, len(dst))
		for i := 0; i < n; i++ {
			dst[i] = byte(word >> (8 * i))
		}
		dst = dst[n:]
	}
	for ; len(dst) >= 8; dst = dst[8:] {
		state += golden
		binary.LittleEndian.PutUint64(dst, mix(state))
	}
	if len(dst) > 0 {
		word := mix(state + golden)
		for i := range dst {
			dst[i] = byte(word >> (8 * i))
		}
	}
}

func splitmix64(x uint64) uint64 {
	x += golden
	return mix(x)
}

func mix(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
