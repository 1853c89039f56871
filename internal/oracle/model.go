// Package oracle pins the production-scale concurrent edge server to
// a small, obviously-correct reference model and checks them against
// each other over seeded operation sequences.
//
// The model is a single-goroutine, map-based restatement of the edge
// server's externally visible semantics: which videos' sizes are
// known, which chunk bytes the store must hold, and the paper's exact
// Eq. 2 ledger (every requested byte lands in the counters exactly
// once; Requested is charged on both sides of a degrade so the
// efficiency identity survives every failure path). Admission and
// eviction decisions are not re-modeled — they are delegated to a
// second instance of the real policy (cafe/xlru) built by the same
// factory with the same per-shard configuration, so the model predicts
// exactly what the server's decision engine will do while keeping the
// byte accounting and residency bookkeeping independently derived.
//
// The model is deliberately restricted to the deterministic fragment
// of the server's behavior: requests are serial, origin faults are
// all-or-nothing phases (healthy / total outage / truncated chunk
// bodies), retries are disabled and the circuit breaker is pinned
// shut-open-proof by configuration. Within that fragment every
// response byte, every counter and every store key is a pure function
// of (seed, operation index) — which is what lets Check diff the real
// server against the model after every single operation. The
// probabilistic fault mixes stay covered by the chaos suite
// (internal/edge/chaos_test.go); the oracle's job is bit-exactness.
package oracle

import (
	"fmt"

	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/cost"
	"videocdn/internal/shard"
	"videocdn/internal/trace"
)

// Phase is the scripted origin fault state. Phases are all-or-nothing
// so the fill outcome is a pure function of the phase, not of the
// fault injector's random stream.
type Phase int

// Phases.
const (
	// PhaseHealthy: every origin request succeeds.
	PhaseHealthy Phase = iota
	// PhaseOutage: every origin request answers 503 — size lookups and
	// chunk fetches both fail; only requests fully answerable from the
	// size cache and the store succeed.
	PhaseOutage
	// PhaseTruncate: size lookups succeed but every chunk body is cut
	// mid-stream, so fills fail after the video's size is learned.
	PhaseTruncate
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseHealthy:
		return "healthy"
	case PhaseOutage:
		return "outage"
	case PhaseTruncate:
		return "truncate"
	default:
		return "unknown"
	}
}

// rangeKind is how a generated request expresses its byte range — the
// model re-derives the effective [b0, b1] (and the degrade-time byte
// hint) per RFC 7233 / query-parameter rules independently of the
// server's parser, so the two implementations check each other.
type rangeKind int

const (
	rangeWhole      rangeKind = iota // no range: the full video
	rangeQuery                       // ?start=a&end=b
	rangeQueryStart                  // ?start=a (end defaults to EOF)
	rangeHeaderAB                    // Range: bytes=a-b
	rangeHeaderOpen                  // Range: bytes=a-
	rangeSuffix                      // Range: bytes=-a (final a bytes)
)

// getOp is one generated GET /video operation.
type getOp struct {
	video chunk.VideoID
	kind  rangeKind
	a, b  int64
}

// expect is the model's prediction for one operation's response.
type expect struct {
	status   int
	body     []byte // nil: don't check the body
	location string // expected Location header when status is 302
	cRange   string // expected Content-Range when status is 206
}

// ledger is the model's aggregate of everything the server reports in
// its /stats counters (the deterministic subset).
type ledger struct {
	counters  cost.Counters
	served    int64
	redirs    int64
	degraded  int64
	fillErrs  int64
	selfHeals int64
}

// Model is the reference model. Not safe for concurrent use — the
// whole point is that it is a single-goroutine restatement of what the
// sharded, locked server must add up to.
type Model struct {
	algo      string
	chunkSize int64
	shards    int
	caches    []core.Cache // one per shard, same factory as the server's
	catalog   map[chunk.VideoID]int64
	redirect  string
	costModel cost.Model

	phase Phase
	now   int64

	known map[chunk.VideoID]int64 // videos whose size the server has cached
	store map[uint64]struct{}     // chunk keys whose bytes the store must hold

	ledger ledger
}

// newModel builds the reference model. factory must be the same
// factory handed to edge.NewServer, so the delegated policy instances
// see identical configuration.
func newModel(algo string, shards int, perShard core.Config, factory func(int, core.Config) (core.Cache, error),
	catalog map[chunk.VideoID]int64, redirectURL string, alpha float64) (*Model, error) {
	m := &Model{
		algo:      algo,
		chunkSize: perShard.ChunkSize,
		shards:    shards,
		caches:    make([]core.Cache, shards),
		catalog:   catalog,
		redirect:  redirectURL,
		costModel: cost.MustModel(alpha),
		known:     make(map[chunk.VideoID]int64),
		store:     make(map[uint64]struct{}),
	}
	for i := range m.caches {
		c, err := factory(i, perShard)
		if err != nil {
			return nil, fmt.Errorf("oracle: model shard %d: %w", i, err)
		}
		m.caches[i] = c
	}
	return m, nil
}

// reopen resets the model to the state a server restart leaves behind:
// fresh (cold) policy instances, zeroed counters, an empty size cache
// — and, unless the store itself was wiped (mem), the chunk bytes
// still on disk.
func (m *Model) reopen(factory func(int, core.Config) (core.Cache, error), perShard core.Config, storeWiped bool) error {
	for i := range m.caches {
		c, err := factory(i, perShard)
		if err != nil {
			return fmt.Errorf("oracle: model reopen shard %d: %w", i, err)
		}
		m.caches[i] = c
	}
	m.known = make(map[chunk.VideoID]int64)
	m.ledger = ledger{}
	if storeWiped {
		m.store = make(map[uint64]struct{})
	}
	return nil
}

// shardOf mirrors edge.Server.shardOf.
func (m *Model) shardOf(v chunk.VideoID) int { return shard.ShardOf(v, m.shards) }

// chunkBytes is the actual byte length of one chunk (the video's final
// chunk may be short).
func (m *Model) chunkBytes(id chunk.ID) int64 {
	size := m.catalog[id.Video]
	n := m.chunkSize
	if lo := int64(id.Index) * m.chunkSize; lo+n > size {
		n = size - lo
	}
	return n
}

// resolveRange applies the server's range semantics (RFC 7233
// single-range forms, or start/end query parameters) to the op,
// returning the inclusive byte range or ok=false for an unsatisfiable
// request (HTTP 416).
func (op getOp) resolveRange(size int64) (b0, b1 int64, ok bool) {
	b0, b1 = 0, size-1
	switch op.kind {
	case rangeWhole:
	case rangeQuery:
		b0, b1 = op.a, op.b
	case rangeQueryStart:
		b0 = op.a
	case rangeHeaderAB:
		b0, b1 = op.a, op.b
	case rangeHeaderOpen:
		b0 = op.a
	case rangeSuffix:
		n := op.a
		if n <= 0 {
			return 0, 0, false
		}
		if n > size {
			n = size
		}
		b0, b1 = size-n, size-1
	}
	if b1 >= size {
		b1 = size - 1
	}
	if b0 < 0 || b0 > b1 {
		return 0, 0, false
	}
	return b0, b1, true
}

// bytesHint mirrors edge.requestBytesHint: the byte length chargeable
// to a degraded request when the video size is unknown — only explicit
// two-sided ranges carry one.
func (op getOp) bytesHint() int64 {
	switch op.kind {
	case rangeQuery, rangeHeaderAB:
		if op.a >= 0 && op.b >= op.a {
			return op.b - op.a + 1
		}
	}
	return 0
}

// degrade charges a lost-fill 302 exactly as the server does: the same
// byte count lands on both sides of Eq. 2.
func (m *Model) degrade(bytes int64, uri string) expect {
	m.ledger.redirs++
	m.ledger.degraded++
	m.ledger.counters.Requested += bytes
	m.ledger.counters.Redirected += bytes
	return expect{status: 302, location: m.redirect + uri}
}

// forget mirrors edge.Server.undoAdmission for the model's delegated
// caches and store set.
func (m *Model) forget(sh int, ids []chunk.ID) {
	type forgetter interface{ Forget(id chunk.ID) }
	if f, ok := m.caches[sh].(forgetter); ok {
		for _, id := range ids {
			f.Forget(id)
		}
	}
	for _, id := range ids {
		delete(m.store, id.Key())
	}
}

// handleGet advances the model by one GET /video operation and returns
// the expected response. uri is the request's path+query, needed to
// predict redirect targets. expectedBody materializes the response
// payload for 200/206 via the deterministic content function.
func (m *Model) handleGet(op getOp, uri string, expectedBody func(v chunk.VideoID, b0, b1 int64) []byte) expect {
	size, exists := m.catalog[op.video]
	if _, ok := m.known[op.video]; !ok {
		// The server must consult the origin for the size first.
		if m.phase == PhaseOutage {
			// Size lookup fails with a retryable error: degrade to the
			// second line of defense, charging only the bytes explicit
			// in the request itself.
			m.ledger.fillErrs++
			return m.degrade(op.bytesHint(), uri)
		}
		if !exists {
			m.ledger.fillErrs++
			return expect{status: 502}
		}
		m.known[op.video] = size
	}
	b0, b1, ok := op.resolveRange(size)
	if !ok {
		return expect{status: 416}
	}
	reqBytes := b1 - b0 + 1

	sh := m.shardOf(op.video)
	out := m.caches[sh].HandleRequest(trace.Request{Time: m.now, Video: op.video, Start: b0, End: b1})

	if out.Decision == core.Redirect {
		m.ledger.redirs++
		m.ledger.counters.Requested += reqBytes
		m.ledger.counters.Redirected += reqBytes
		return expect{status: 302, location: m.redirect + uri}
	}

	// The eviction decision stands however the fills go.
	for _, id := range out.EvictedIDs {
		delete(m.store, id.Key())
	}
	for i, id := range out.FilledIDs {
		if m.phase != PhaseHealthy {
			// The chunk fetch fails (503 or truncated body); the server
			// rolls back the not-yet-filled admissions and degrades.
			m.ledger.fillErrs++
			m.forget(sh, out.FilledIDs[i:])
			return m.degrade(reqBytes, uri)
		}
		m.ledger.counters.Filled += m.chunkBytes(id)
		m.store[id.Key()] = struct{}{}
	}

	// Preflight self-heal: a chunk the cache claims without store
	// bytes — possible only for policies without Forget, where a
	// failed fill's admission cannot be rolled back — is re-fetched
	// before the response commits, or degrades the request when the
	// origin cannot deliver it.
	for c := b0 / m.chunkSize; c <= b1/m.chunkSize; c++ {
		id := chunk.ID{Video: op.video, Index: uint32(c)}
		if _, ok := m.store[id.Key()]; ok {
			continue
		}
		if m.phase != PhaseHealthy {
			m.ledger.fillErrs++
			m.forget(sh, []chunk.ID{id})
			return m.degrade(reqBytes, uri)
		}
		m.ledger.selfHeals++
		m.ledger.counters.Filled += m.chunkBytes(id)
		m.store[id.Key()] = struct{}{}
	}

	m.ledger.served++
	m.ledger.counters.Requested += reqBytes
	e := expect{status: 200, body: expectedBody(op.video, b0, b1)}
	if b0 != 0 || b1 != size-1 {
		e.status = 206
		e.cRange = fmt.Sprintf("bytes %d-%d/%d", b0, b1, size)
	}
	return e
}

// prefetchCache is the capability the prefetch handler needs (only
// cafe implements it).
type prefetchCache interface {
	PrefetchChunk(id chunk.ID, now int64) (bool, []chunk.ID)
	HighestCachedIndex(v chunk.VideoID) (uint32, bool)
}

// handlePrefetch advances the model by one POST /prefetch operation.
func (m *Model) handlePrefetch(v chunk.VideoID, n int) expect {
	p, ok := m.caches[m.shardOf(v)].(prefetchCache)
	if !ok {
		return expect{status: 501}
	}
	size, exists := m.catalog[v]
	if _, known := m.known[v]; !known {
		if m.phase == PhaseOutage || !exists {
			m.ledger.fillErrs++
			return expect{status: 502}
		}
		m.known[v] = size
	}
	maxChunk := uint32((size - 1) / m.chunkSize)
	sh := m.shardOf(v)
	accepted := 0
	for i := 0; i < n; i++ {
		hi, ok := p.HighestCachedIndex(v)
		if !ok || hi >= maxChunk {
			break
		}
		id := chunk.ID{Video: v, Index: hi + 1}
		admitted, evicted := p.PrefetchChunk(id, m.now)
		for _, ev := range evicted {
			delete(m.store, ev.Key())
		}
		if !admitted {
			break
		}
		if m.phase != PhaseHealthy {
			m.ledger.fillErrs++
			m.forget(sh, []chunk.ID{id})
			return expect{status: 502}
		}
		m.ledger.counters.Filled += m.chunkBytes(id)
		m.store[id.Key()] = struct{}{}
		accepted++
	}
	return expect{status: 200, body: []byte(fmt.Sprintf("accepted %d\n", accepted))}
}

// cachedChunks returns the model's total and per-shard resident chunk
// counts — the prediction for Stats.CachedChunks / Stats.ShardChunks.
func (m *Model) cachedChunks() (total int, perShard []int) {
	perShard = make([]int, len(m.caches))
	for i, c := range m.caches {
		perShard[i] = c.Len()
		total += perShard[i]
	}
	return total, perShard
}

// claims reports whether any model cache claims the chunk resident.
func (m *Model) claims(id chunk.ID) bool {
	return m.caches[m.shardOf(id.Video)].Contains(id)
}

// canForget reports whether the policy supports admission rollback —
// the policies that do can never leave a claimed chunk without bytes.
func (m *Model) canForget() bool {
	type forgetter interface{ Forget(id chunk.ID) }
	_, ok := m.caches[0].(forgetter)
	return ok
}
