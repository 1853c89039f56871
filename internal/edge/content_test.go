package edge

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"videocdn/internal/chunk"
)

// chunkDataRef is the byte-at-a-time loop ChunkData was first written
// as. It defines the content: the oracle digests, the benchmark's body
// check and every stored chunk were produced by it, so the
// word-at-a-time generator must match it byte for byte.
func chunkDataRef(v chunk.VideoID, index uint32, dst []byte) {
	state := splitmix64(uint64(v)<<32 ^ uint64(index))
	var word uint64
	for i := range dst {
		if i%8 == 0 {
			state += 0x9E3779B97F4A7C15
			word = mix(state)
		}
		dst[i] = byte(word >> (8 * (i % 8)))
	}
}

// refRange is bytes [b0, b1] of video v at the given chunk size,
// concatenated from whole reference chunks.
func refRange(v chunk.VideoID, chunkSize, b0, b1 int64) []byte {
	out := make([]byte, 0, b1-b0+1)
	buf := make([]byte, chunkSize)
	for c := b0 / chunkSize; c <= b1/chunkSize; c++ {
		chunkDataRef(v, uint32(c), buf)
		lo := c * chunkSize
		out = append(out, buf[max(b0-lo, 0):min(b1-lo, chunkSize-1)+1]...)
	}
	return out
}

func TestChunkDataMatchesReference(t *testing.T) {
	var lengths []int
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 4095, 4096, 4097, 64<<10, 256<<10, 1<<20,
		// Odd EOF tails: a final chunk ends wherever the video does.
		31, 33, 1001, 64<<10-3, 256<<10+5, 1<<20-1)
	rng := rand.New(rand.NewSource(14))
	for _, n := range lengths {
		for rep := 0; rep < 4; rep++ {
			v, c := chunk.VideoID(rng.Uint32()), rng.Uint32()
			// One guard byte each side catches a write outside dst.
			got := make([]byte, n+2)
			got[0], got[n+1] = 0xA5, 0x5A
			want := make([]byte, n)
			ChunkData(v, c, got[1:n+1])
			chunkDataRef(v, c, want)
			if !bytes.Equal(got[1:n+1], want) {
				t.Fatalf("len %d (v=%d c=%d): ChunkData differs from the reference loop", n, v, c)
			}
			if got[0] != 0xA5 || got[n+1] != 0x5A {
				t.Fatalf("len %d: ChunkData wrote outside dst", n)
			}
		}
	}
}

// TestChunkDataAtIsOffsetAddressable pins that any window of a chunk
// can be generated on its own: every (offset, length) pair around the
// word boundaries equals the same window of the reference.
func TestChunkDataAtIsOffsetAddressable(t *testing.T) {
	const v, c = chunk.VideoID(0xC0FFEE), uint32(41)
	ref := make([]byte, 200)
	chunkDataRef(v, c, ref)
	for off := 0; off < 72; off++ {
		for n := 0; off+n <= len(ref); n++ {
			got := make([]byte, n)
			chunkDataAt(v, c, int64(off), got)
			if !bytes.Equal(got, ref[off:off+n]) {
				t.Fatalf("window [%d,%d) differs from the reference", off, off+n)
			}
		}
	}
	// A far offset, beyond anything a loop counter would reach by accident.
	big := make([]byte, 1<<20+18)
	chunkDataRef(v, c, big)
	got := make([]byte, 29)
	chunkDataAt(v, c, 1<<20-11, got)
	if !bytes.Equal(got, big[1<<20-11:1<<20+18]) {
		t.Fatal("window at 1 MiB differs from the reference")
	}
}

func TestDeterministicCatalogSizeOf(t *testing.T) {
	for _, tc := range []struct {
		name     string
		min, max int64
	}{
		{"span zero", 4096, 4096},
		{"span negative", 4096, 100},
		{"span one", 4096, 4097},
		{"span wide", 1 << 20, 8 << 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cat := DeterministicCatalog{MinBytes: tc.min, MaxBytes: tc.max}
			for v := chunk.VideoID(0); v < 5000; v++ {
				size, ok := cat.SizeOf(v)
				if !ok {
					t.Fatalf("video %d does not exist", v)
				}
				if tc.max <= tc.min {
					if size != tc.min {
						t.Fatalf("video %d: size %d, want MinBytes %d when the span is empty", v, size, tc.min)
					}
					continue
				}
				// The upper bound is exclusive: MaxBytes itself never occurs.
				if size < tc.min || size >= tc.max {
					t.Fatalf("video %d: size %d outside [%d, %d)", v, size, tc.min, tc.max)
				}
			}
		})
	}
}

func BenchmarkChunkData(b *testing.B) {
	for _, n := range []int{64 << 10, 256 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("%dKiB", n>>10), func(b *testing.B) {
			dst := make([]byte, n)
			b.SetBytes(int64(n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ChunkData(7, uint32(i), dst)
			}
		})
	}
}
