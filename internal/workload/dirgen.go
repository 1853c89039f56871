package workload

import (
	"errors"
	"fmt"
	"sync"

	"videocdn/internal/chunk"
	"videocdn/internal/trace"
)

// maxSplitParts bounds SplitProfile: each part gets a disjoint 24-bit
// video-ID namespace (IDOffset = part << 24), and chunk.ID.Key packs
// video IDs into 32 bits, so at most 256 parts fit.
const maxSplitParts = 256

// SplitProfile divides a profile into parts independent sub-profiles
// whose union approximates the original workload: request volume,
// catalog size and churn are divided evenly (remainders spread over
// the first parts), each part draws from its own derived seed, and
// each part mints video IDs in a disjoint namespace via IDOffset so
// parallel generators can never alias videos. parts == 1 returns the
// profile unchanged, so single-part generation is bit-identical to the
// plain Generator.
func SplitProfile(p Profile, parts int) ([]Profile, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if parts <= 0 {
		return nil, fmt.Errorf("workload: parts must be positive, got %d", parts)
	}
	if parts == 1 {
		return []Profile{p}, nil
	}
	if parts > maxSplitParts {
		return nil, fmt.Errorf("workload: at most %d parts (24-bit per-part video namespaces), got %d", maxSplitParts, parts)
	}
	if p.IDOffset != 0 {
		return nil, fmt.Errorf("workload: cannot split a profile that already has IDOffset %d", p.IDOffset)
	}
	if p.RequestsPerDay < parts || p.CatalogSize < parts {
		return nil, fmt.Errorf("workload %q: cannot split %d req/day over a %d-video catalog into %d parts",
			p.Name, p.RequestsPerDay, p.CatalogSize, parts)
	}
	share := func(total, i int) int {
		n := total / parts
		if i < total%parts {
			n++
		}
		return n
	}
	out := make([]Profile, parts)
	for i := range out {
		sub := p
		sub.Name = fmt.Sprintf("%s-part%d", p.Name, i)
		// splitmix64-style seed derivation: distinct, deterministic,
		// and decorrelated from neighboring parts.
		sub.Seed = p.Seed ^ int64(chunk.ShardOf(chunk.VideoID(i+1), 1<<30))
		sub.RequestsPerDay = share(p.RequestsPerDay, i)
		sub.CatalogSize = share(p.CatalogSize, i)
		sub.NewVideosPerDay = share(p.NewVideosPerDay, i)
		sub.IDOffset = chunk.VideoID(i) << 24
		if err := sub.Validate(); err != nil {
			return nil, err
		}
		out[i] = sub
	}
	return out, nil
}

// DirGenOptions tune GenerateDir.
type DirGenOptions struct {
	// Workers is the number of parallel generation parts (defaults to
	// 1). Each worker generates an independent SplitProfile slice of
	// the workload and streams it to its own segment files.
	Workers int
	// BlockRequests overrides the trace block size (testing knob).
	BlockRequests int
}

// GenerateDir synthesizes a trace for the profile directly into a
// columnar trace directory: generation streams block-by-block to disk
// and never holds the trace in memory, and with Workers > 1 it is
// itself parallel (the profile is split with SplitProfile; readers
// merge the parts deterministically by (Time, Part, Seq)). Returns
// streaming Stats over everything written.
func GenerateDir(p Profile, days int, dir string, opt DirGenOptions) (Stats, error) {
	if days <= 0 {
		return Stats{}, fmt.Errorf("workload: days must be positive, got %d", days)
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = 1
	}
	subs, err := SplitProfile(p, workers)
	if err != nil {
		return Stats{}, err
	}
	// Build every generator before creating the directory, so a bad
	// profile never leaves a half-written trace dir behind.
	gens := make([]*Generator, workers)
	for i, sub := range subs {
		g, err := NewGenerator(sub)
		if err != nil {
			return Stats{}, err
		}
		gens[i] = g
	}
	dp, err := trace.CreateDirParts(dir, trace.DirConfig{Parts: workers, BlockRequests: opt.BlockRequests})
	if err != nil {
		return Stats{}, err
	}

	type partStats struct {
		requests   int
		videos     map[chunk.VideoID]struct{}
		totalBytes int64
		minT, maxT int64
	}
	stats := make([]partStats, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pw := dp.Part(i)
			ps := &stats[i]
			ps.videos = make(map[chunk.VideoID]struct{})
			errs[i] = gens[i].GenerateFunc(days, func(r trace.Request) error {
				if err := pw.Write(r); err != nil {
					return err
				}
				if ps.requests == 0 {
					ps.minT = r.Time
				}
				ps.maxT = r.Time
				ps.requests++
				ps.totalBytes += r.Bytes()
				ps.videos[r.Video] = struct{}{}
				return nil
			})
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return Stats{}, err
	}
	if err := dp.Close(); err != nil {
		return Stats{}, err
	}

	var s Stats
	first := true
	var minT, maxT int64
	for i := range stats {
		ps := &stats[i]
		s.Requests += ps.requests
		// Parts mint IDs in disjoint namespaces, so unique counts sum.
		s.UniqueVideos += len(ps.videos)
		s.TotalBytes += ps.totalBytes
		if ps.requests == 0 {
			continue
		}
		if first || ps.minT < minT {
			minT = ps.minT
		}
		if first || ps.maxT > maxT {
			maxT = ps.maxT
		}
		first = false
	}
	if s.Requests > 0 {
		s.MeanReqBytes = float64(s.TotalBytes) / float64(s.Requests)
		s.Days = float64(maxT-minT) / SecondsPerDay
		if s.Days > 0 {
			s.RequestsPerDay = float64(s.Requests) / s.Days
		}
	}
	return s, nil
}
