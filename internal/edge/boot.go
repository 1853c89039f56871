package edge

import (
	"fmt"
	"slices"
	"time"

	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/cost"
	"videocdn/internal/prefetch"
	"videocdn/internal/sim"
	"videocdn/internal/trace"
)

// Boot builds an edge server that logs its policy's events to the
// request log in dir and whose policy starts from that log, so its
// state survives a restart, graceful or not, whatever the spec.
//
// The log holds every call that changed the policy's state — each
// request it decided, each prefetch step, each Forget — in decision
// order. Boot opens it (repairing the part a crash left unfinished),
// builds the server, its policy from cfg.CacheFactory, and replays
// every record into the policy through sim.Replay before the server
// serves. The server's clock floor starts at the log's last time, and
// the default clock continues from it, so no request after the restart
// is stamped earlier than one already decided.
//
// stored lists the chunks cfg.Store held when it was opened; the code
// that opened the concrete store enumerates them (FS.Keys, Slab.Keys).
// Boot reconciles the two sides: it forgets, and logs, every chunk the
// policy holds that the store lacks, and deletes every stored chunk the
// policy does not hold. Afterwards the store's keyset is a subset of
// the policy's residency, so store bytes stay within the disk budget.
//
// Close finalizes the log's new part.
func Boot(cfg Config, dir string, stored []chunk.ID) (*Server, error) {
	log, err := trace.OpenLog(dir)
	if err != nil {
		return nil, err
	}
	s, err := boot(cfg, log, dir, stored)
	if err != nil {
		log.Close()
		return nil, err
	}
	return s, nil
}

func boot(cfg Config, log *trace.Log, dir string, stored []chunk.ID) (*Server, error) {
	last, logged := log.LastTime()
	if cfg.Clock == nil {
		start := time.Now()
		cfg.Clock = func() int64 { return last + int64(time.Since(start)/time.Second) }
	}
	s, err := NewServer(cfg)
	if err != nil {
		return nil, err
	}
	c := s.cache
	held := &residents{Cache: c, keys: make(map[uint64]struct{})}
	if logged {
		var replay core.Cache = held
		if p, ok := c.(prefetch.Prefetchable); ok {
			replay = prefetchResidents{held, p}
		}
		d, err := trace.OpenDir(dir)
		if err != nil {
			return nil, err
		}
		if _, err := sim.Replay(replay, d, cost.Model{}, sim.Options{}); err != nil {
			return nil, fmt.Errorf("edge: replaying %s: %w", dir, err)
		}
	}
	s.lastTime = last
	s.log = log

	if f, ok := c.(forgetter); ok {
		var lost []chunk.ID
		for _, id := range held.ids() {
			if c.Contains(id) && !s.cfg.Store.Has(id) {
				lost = append(lost, id)
			}
		}
		s.forget(f, lost)
	}
	var strays []chunk.ID
	for _, id := range stored {
		if !c.Contains(id) {
			strays = append(strays, id)
		}
	}
	s.deleteChunks(strays)
	return s, nil
}

// residents follows the chunks a cache holds through a log replay: the
// policy has no way to list them, and Boot needs them to find the
// chunks the store lost.
type residents struct {
	core.Cache
	keys map[uint64]struct{}
}

func (r *residents) HandleRequest(req trace.Request) core.Outcome {
	out := r.Cache.HandleRequest(req)
	r.add(out.FilledIDs, out.EvictedIDs)
	return out
}

// Forget re-issues a logged rollback. The edge logs a Forget only
// through a cache that has one, so a cache without it never meets one
// in its own log.
func (r *residents) Forget(id chunk.ID) {
	if f, ok := r.Cache.(forgetter); ok {
		f.Forget(id)
	}
	delete(r.keys, id.Key())
}

func (r *residents) add(filled, evicted []chunk.ID) {
	for _, id := range evicted {
		delete(r.keys, id.Key())
	}
	for _, id := range filled {
		r.keys[id.Key()] = struct{}{}
	}
}

// ids returns the followed chunks in key order, so Boot's Forgets log
// in the same order every time.
func (r *residents) ids() []chunk.ID {
	keys := make([]uint64, 0, len(r.keys))
	for k := range r.keys {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	ids := make([]chunk.ID, len(keys))
	for i, k := range keys {
		ids[i] = chunk.FromKey(k)
	}
	return ids
}

// prefetchResidents is residents over a cache that prefetches.
type prefetchResidents struct {
	*residents
	p prefetch.Prefetchable
}

func (r prefetchResidents) PrefetchNext(v chunk.VideoID, size, now int64) (chunk.ID, bool, bool, []chunk.ID) {
	id, considered, admitted, evicted := r.p.PrefetchNext(v, size, now)
	var filled []chunk.ID
	if admitted {
		filled = []chunk.ID{id}
	}
	r.add(filled, evicted)
	return id, considered, admitted, evicted
}

func (r prefetchResidents) ChunkSize() int64 { return r.p.ChunkSize() }
