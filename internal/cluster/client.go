package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"videocdn/internal/chunk"
	"videocdn/internal/edge"
	"videocdn/internal/resilience"
	"videocdn/internal/store"
)

// Miss sentinels: ErrNoPeer and ErrNotCached wrap edge.ErrPeerMiss, so
// the edge's fill path classifies them as "the peer tier
// authoritatively cannot help" (origin fill is correct, not a peer
// failure); ErrSelfOwner wraps edge.ErrPeerSelf (no tier involved).
var (
	// ErrSelfOwner: this node is the video's effective owner; owners
	// origin-fill, they do not ask peers. Wraps edge.ErrPeerSelf (not
	// ErrPeerMiss): the peer tier was never applicable, so the edge
	// moves no peer counter and a one-node cluster stays bit-identical
	// to a standalone edge.
	ErrSelfOwner = fmt.Errorf("cluster: this node owns the video: %w", edge.ErrPeerSelf)
	// ErrNoPeer: no alive, circuit-closed peer owner to ask.
	ErrNoPeer = fmt.Errorf("cluster: no reachable peer owner: %w", edge.ErrPeerMiss)
	// ErrNotCached: the owner answered an authoritative 404.
	ErrNotCached = fmt.Errorf("cluster: owner does not cache the chunk: %w", edge.ErrPeerMiss)
)

// errPeer404 is the internal transport-level marker for an owner's 404.
var errPeer404 = errors.New("cluster: peer answered 404")

// ClientConfig tunes the peer fetch client.
type ClientConfig struct {
	// Self is this node's ID; the client never fetches from itself and
	// stops at itself in the failover order (from that point on, this
	// node is the owner and must origin-fill).
	Self string
	// Timeout bounds each single peer attempt (default 2s) — a slow
	// peer must cost less than an origin round trip, or the second
	// line of defense is worse than the first.
	Timeout time.Duration
	// MaxTries bounds distinct-peer attempts per fetch (default 2).
	// Skipping an open-circuit peer costs nothing and does not consume
	// a try.
	MaxTries int
	// Breaker configures the per-peer circuit breakers (zero value →
	// resilience defaults).
	Breaker resilience.BreakerConfig
	// HTTPClient performs peer requests. Default: a dedicated client
	// (peer fetches must not share the origin client's limits).
	HTTPClient *http.Client
	// MaxChunkBytes rejects oversized peer payloads; set it to the
	// edge's chunk size. Default 16 MiB.
	MaxChunkBytes int64
}

// Client fetches chunks from owning peers, rendezvous-ordered, under
// per-peer breakers and deadlines. It implements edge.PeerSource.
// Safe for concurrent use.
type Client struct {
	cfg      ClientConfig
	router   *Router
	breakers *resilience.Group

	fetches  atomic.Int64 // FetchStream calls
	hits     atomic.Int64 // chunks delivered by a peer
	misses   atomic.Int64 // authoritative misses (self-owner, 404, no peer)
	failures atomic.Int64 // fetches that exhausted the peer line with errors
	skips    atomic.Int64 // peers skipped on an open circuit
}

// NewClient builds a peer client over the router's membership.
func NewClient(router *Router, cfg ClientConfig) *Client {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	if cfg.MaxTries <= 0 {
		cfg.MaxTries = 2
	}
	if cfg.MaxChunkBytes <= 0 {
		cfg.MaxChunkBytes = 16 << 20
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{Timeout: cfg.Timeout}
	}
	return &Client{cfg: cfg, router: router, breakers: resilience.NewGroup(cfg.Breaker)}
}

// FetchStream implements edge.PeerSource: try the chunk's alive peer
// owners in deterministic failover order, under per-peer breakers,
// stopping at this node's own position in the order, and hand the
// winning peer's body to sink. A peer's authoritative 404 ends the
// search (the owner is the node that would have cached it); transport
// errors and bad statuses count against that peer's breaker and fall
// through to the next owner, up to MaxTries attempts. sink's own
// failure (the local store rejecting the stream) is kept apart from
// peer failures: the peer delivered, so its breaker records success
// and no other peer is tried.
func (c *Client) FetchStream(ctx context.Context, id chunk.ID, sink func(io.Reader) (int64, error)) (int64, error) {
	c.fetches.Add(1)
	tries := 0
	var lastErr error
	for _, n := range c.router.AliveOwners(id.Video) {
		if n.ID == c.cfg.Self {
			// Every owner from here down ranks below this node: this
			// node is the effective owner and must origin-fill.
			if tries == 0 && lastErr == nil {
				c.misses.Add(1)
				return 0, ErrSelfOwner
			}
			break
		}
		if tries >= c.cfg.MaxTries {
			break
		}
		b := c.breakers.Get(n.ID)
		if !b.Allow() {
			c.skips.Add(1)
			continue
		}
		tries++
		size, sinkFailed, err := c.streamFrom(ctx, n, id, sink)
		switch {
		case err == nil:
			b.Record(true)
			c.hits.Add(1)
			return size, nil
		case errors.Is(err, errPeer404):
			// The owner is alive and authoritatively does not have the
			// chunk; lower-ranked owners are even less likely to.
			b.Record(true)
			c.misses.Add(1)
			return 0, ErrNotCached
		case sinkFailed:
			// The peer held up its end; the bytes had nowhere to go
			// locally. Counted as a hit and returned without trying
			// peers that would fare no better.
			b.Record(true)
			c.hits.Add(1)
			return 0, err
		default:
			b.Record(false)
			lastErr = err
		}
	}
	if lastErr != nil {
		c.failures.Add(1)
		return 0, fmt.Errorf("cluster: peer line lost: %w", lastErr)
	}
	c.misses.Add(1)
	return 0, ErrNoPeer
}

// trackedBody separates body-read errors from sink errors so
// streamFrom can tell whose fault a failed sink call was.
type trackedBody struct {
	r   io.Reader
	n   int64
	err error
}

func (t *trackedBody) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	t.n += int64(n)
	if err != nil && err != io.EOF {
		t.err = err
	}
	return n, err
}

// streamFrom performs one peer round trip under the per-attempt
// deadline, feeding a 200 body to sink. sinkFailed reports that the
// error is the sink's own (not body truncation, not an oversized
// payload): the peer is innocent and must not be failed over.
func (c *Client) streamFrom(ctx context.Context, n Node, id chunk.ID, sink func(io.Reader) (int64, error)) (size int64, sinkFailed bool, err error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	url := fmt.Sprintf("%s/peer/chunk?v=%d&c=%d", n.URL, id.Video, id.Index)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, false, err
	}
	req.Header.Set(edge.PeerHopHeader, "1")
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return 0, false, err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusNotFound:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 512))
		return 0, false, errPeer404
	case resp.StatusCode != http.StatusOK:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 512))
		return 0, false, fmt.Errorf("peer %s returned %s", n.ID, resp.Status)
	case resp.ContentLength > c.cfg.MaxChunkBytes:
		// Reject on the declared size alone: no byte is read, no buffer
		// allocated, for a response we already know we will discard.
		return 0, false, fmt.Errorf("peer %s sent an oversized chunk", n.ID)
	}
	tb := &trackedBody{r: io.LimitReader(resp.Body, c.cfg.MaxChunkBytes+1)}
	size, err = sink(tb)
	switch {
	case err == nil && tb.n > c.cfg.MaxChunkBytes:
		return 0, false, fmt.Errorf("peer %s sent an oversized chunk", n.ID)
	case err == nil:
		return size, false, nil
	case tb.err != nil:
		return 0, false, err // truncated or stalled body: the peer's fault
	case errors.Is(err, store.ErrTooLarge):
		// The sink's size cap tripped before ours could; same verdict.
		return 0, false, fmt.Errorf("peer %s sent an oversized chunk", n.ID)
	default:
		return 0, true, err
	}
}

// BreakerStates snapshots every peer breaker's state, keyed by node ID.
func (c *Client) BreakerStates() map[string]resilience.State { return c.breakers.States() }

// BreakerOpens sums circuit trips across all peers.
func (c *Client) BreakerOpens() int64 { return c.breakers.Opens() }

// ClientCounts is the client-side view of the peer line.
type ClientCounts struct {
	Fetches, Hits, Misses, Failures, OpenSkips int64
}

// Counts snapshots the fetch counters.
func (c *Client) Counts() ClientCounts {
	return ClientCounts{
		Fetches: c.fetches.Load(), Hits: c.hits.Load(), Misses: c.misses.Load(),
		Failures: c.failures.Load(), OpenSkips: c.skips.Load(),
	}
}

// Close releases idle peer connections (goroutine hygiene for tests
// and clean shutdown).
func (c *Client) Close() { c.cfg.HTTPClient.CloseIdleConnections() }

var _ edge.PeerSource = (*Client)(nil)
