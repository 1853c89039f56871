// Package core defines the contract shared by all cache algorithms in
// this repository: the serve-or-redirect decision (Problem 1/2 of the
// paper, Section 4.3) and the accounting outcome of handling one
// request.
//
// A cache server receives a request and must either serve it — cache
// filling any missing chunks and evicting enough old chunks to make
// room — or redirect it to an alternative server. The Outcome reports
// exactly what happened so a driver (internal/sim, internal/edge) can
// account ingress, redirected and hit bytes per Section 4.2 without
// knowing anything about the algorithm.
package core

import (
	"videocdn/internal/chunk"
	"videocdn/internal/trace"
)

// Decision is the verdict for one request.
type Decision uint8

const (
	// Serve: the request is served locally; missing chunks were
	// cache-filled.
	Serve Decision = iota
	// Redirect: the request is redirected (HTTP 302) to an alternative
	// server; local state beyond popularity tracking is unchanged.
	Redirect
)

// String implements fmt.Stringer.
func (d Decision) String() string {
	switch d {
	case Serve:
		return "serve"
	case Redirect:
		return "redirect"
	default:
		return "unknown"
	}
}

// Outcome reports the effects of handling one request.
type Outcome struct {
	Decision Decision
	// FilledChunks is the number of chunks ingressed for this request
	// (the paper's |S'|). Zero on redirects.
	FilledChunks int
	// FilledBytes is FilledChunks * chunkSize: whole chunks are always
	// fetched in full (Section 4.2).
	FilledBytes int64
	// EvictedChunks is the number of chunks evicted to make room
	// (equals FilledChunks once the disk is full, the paper's |S''|).
	EvictedChunks int
	// FilledIDs and EvictedIDs identify the chunks behind the counts
	// above, for drivers that materialize bytes (the HTTP edge server
	// must fetch exactly FilledIDs and delete exactly EvictedIDs).
	// len(FilledIDs) == FilledChunks and len(EvictedIDs) ==
	// EvictedChunks.
	FilledIDs  []chunk.ID
	EvictedIDs []chunk.ID
}

// Cache is the interface every caching algorithm implements.
//
// HandleRequest must be called with non-decreasing request timestamps;
// implementations are free to panic or misbehave on time travel (the
// replay engine validates ordering).
//
// Implementations are not safe for concurrent use; drivers serialize
// access (a production server would shard by request or guard with a
// mutex, as internal/edge does).
type Cache interface {
	// HandleRequest decides to serve or redirect request r, mutating
	// internal state (popularity tracking, disk contents) accordingly.
	// The cache may reuse the backing arrays of the returned FilledIDs
	// and EvictedIDs: they stay valid until the next HandleRequest on the
	// same cache, and a caller that keeps them longer copies them.
	HandleRequest(r trace.Request) Outcome

	// Contains reports whether the chunk is currently on disk. It
	// exists for tests, introspection and the HTTP edge server; it
	// must not mutate state.
	Contains(id chunk.ID) bool

	// Len returns the number of chunks currently on disk.
	Len() int

	// Name identifies the algorithm (e.g. "xlru", "cafe").
	Name() string
}

// Config carries the parameters common to all algorithms.
type Config struct {
	// ChunkSize is K in bytes (default 2 MB).
	ChunkSize int64
	// DiskChunks is the disk capacity D_c in chunks.
	DiskChunks int
	// ReuseOutcomeBuffers is ignored: every cache may reuse its outcome
	// buffers (see Cache.HandleRequest).
	ReuseOutcomeBuffers bool
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.ChunkSize <= 0 {
		return ErrBadChunkSize
	}
	if c.DiskChunks <= 0 {
		return ErrBadDiskSize
	}
	return nil
}

// Sentinel configuration errors.
var (
	ErrBadChunkSize = errorString("core: chunk size must be positive")
	ErrBadDiskSize  = errorString("core: disk size must be positive")
	ErrBadAlpha     = errorString("core: alpha_F2R must be positive")
	ErrBadGamma     = errorString("core: gamma must be in (0, 1]")
	ErrBadWindow    = errorString("core: window scale must be positive")
	ErrBadFutureN   = errorString("core: future list bound N must be positive")
)

type errorString string

func (e errorString) Error() string { return string(e) }
