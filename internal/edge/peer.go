package edge

// Peer fill: the cluster's second line of defense between the local
// cache and the origin. On a miss the server first asks a PeerSource —
// typically the cluster's rendezvous-routed peer client — for the
// chunk's bytes (cheap intra-cluster transfer, charged at C_P) and
// only falls back to the origin (expensive ingress, charged at C_F)
// when the peer tier cannot supply them. The serving side,
// /peer/chunk, reads the local store only: it never fills and never
// forwards, so peer traffic is structurally loop-free; the hop header
// is belt and braces against a misconfigured client.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"videocdn/internal/chunk"
	"videocdn/internal/resilience"
	"videocdn/internal/store"
)

// PeerSource supplies chunk bytes from somewhere cheaper than the
// origin. FetchStream hands the body of exactly one successful peer
// response to sink, which consumes it and returns the byte count it
// committed; FetchStream returns that count. An error wrapping
// ErrPeerMiss means the tier authoritatively cannot supply the chunk
// (no peer owns it, the owner does not cache it) — a miss, not a
// failure; one wrapping ErrPeerSelf that this node is the owner. Any
// other error is a peer-tier failure; either way the caller falls
// through to the origin, so a lost peer line degrades exactly like no
// peer line at all. An error the sink itself produced is returned
// without blaming a peer for it (breaker, counters, failover).
type PeerSource interface {
	FetchStream(ctx context.Context, id chunk.ID, sink func(io.Reader) (int64, error)) (int64, error)
}

// ErrPeerMiss marks a PeerSource result as an authoritative "the peer
// tier does not have this chunk" rather than a failure of the tier.
var ErrPeerMiss = errors.New("edge: peer tier cannot supply the chunk")

// ErrPeerSelf marks this node as the chunk's own effective owner: the
// peer tier was not applicable, so the fill is neither a peer miss nor
// a peer failure and moves no peer counter. A single-node cluster is
// therefore counter-for-counter identical to a standalone edge.
var ErrPeerSelf = errors.New("edge: this node owns the chunk")

// PeerHopHeader counts forwarding hops on intra-cluster chunk fetches.
// The peer client sends "1"; /peer/chunk rejects anything higher with
// 508, so even a misconfigured mesh cannot relay a fetch in a loop.
const PeerHopHeader = "X-Videocdn-Peer-Hop"

// handlePeerChunk serves GET /peer/chunk?v=<id>&c=<index>: one whole
// chunk from the local store, or 404 if this node does not hold it.
// It consults the store only — never the cache's decision engine,
// never the origin — so serving a peer can neither trigger a recursive
// fetch nor perturb this node's own admission state.
func (s *Server) handlePeerChunk(w http.ResponseWriter, r *http.Request) {
	if hop := r.Header.Get(PeerHopHeader); hop != "" {
		if n, err := strconv.Atoi(hop); err != nil || n > 1 {
			http.Error(w, "peer fetch loop detected", http.StatusLoopDetected)
			return
		}
	}
	v, err := parseVideo(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	cs := queryParam(r, "c")
	idx, err := strconv.ParseUint(cs, 10, 32)
	if err != nil {
		http.Error(w, "bad chunk index", http.StatusBadRequest)
		return
	}
	id := chunk.ID{Video: v, Index: uint32(idx)}

	cr := chunkReader{s: s, rf: s.sectionWriter(w)}
	defer cr.close()
	view, err := cr.open(id)
	if err != nil {
		// Absent or unreadable: either way this node cannot help, and
		// the requester's origin path can. 404 is the authoritative miss
		// the peer client stops on.
		http.Error(w, "chunk not cached here", http.StatusNotFound)
		return
	}
	size := view.size()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	if cr.write(w, view, 0, 0, size-1) == nil {
		// Charged only on a full successful write: the fetching node
		// charges PeerFilled only on a committed put, so a truncated
		// transfer must not inflate the serving side.
		s.peerServes.Add(1)
		s.peerServedBytes.Add(size)
	}
}

// peerFill tries the peer tier for one chunk, the peer's body going
// into the store the way an origin body does (putBody). Returns
// done=true when the chunk was filled (or when the store rejected the
// bytes — a Permanent, degradable failure exactly like the origin
// path's); done=false falls through to the origin. The sink separates
// a local store failure from peer-side truncation/oversize, which the
// client resolves against the peer's breaker and this side counts as a
// tier failure.
func (s *Server) peerFill(ctx context.Context, id chunk.ID) (bool, error) {
	var storeErr error
	n, err := s.cfg.PeerFill.FetchStream(ctx, id, func(body io.Reader) (int64, error) {
		tr := &trackReader{r: body}
		scratch := s.fillScratchGet()
		defer s.fillScratchPut(scratch)
		n, perr := s.putBody(id, tr, s.cfg.ChunkSize, scratch)
		if perr != nil && tr.err == nil && !errors.Is(perr, store.ErrTooLarge) {
			storeErr = perr // local store fault, not the peer's
		}
		return n, perr
	})
	switch {
	case err == nil:
		s.peerFills.Add(1)
		s.counters.peerFilled.Add(n)
		s.fillsCounter().Add(1)
		return true, nil
	case storeErr != nil:
		return true, resilience.Permanent(fmt.Errorf("store: %w", storeErr))
	case errors.Is(err, ErrPeerSelf):
		// Owners origin-fill by design; not peer-tier activity at all.
	case errors.Is(err, ErrPeerMiss):
		s.peerFillMisses.Add(1)
	default:
		if ctx.Err() != nil {
			// The fill deadline died during the peer attempt; starting
			// an origin round trip now would fail the same way.
			return true, ctx.Err()
		}
		s.peerFillErrs.Add(1)
	}
	return false, nil
}
