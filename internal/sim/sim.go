// Package sim replays request traces through cache algorithms and
// produces the measurements reported in the paper's evaluation
// (Section 9): ingress percentage, redirect ratio and overall cache
// efficiency, both as hourly time series and as steady-state averages
// over the tail of the trace (excluding cache warmup).
//
// Replay consumes a trace.Source, so the same code replays an
// in-memory []Request (trace.Slice) or a columnar trace directory
// (trace.OpenDir) streamed block by block — the unit of experiment
// scale is the trace medium, not RAM. It drives the source's one
// stream through one cache on the calling goroutine, as one server
// serves its requests from one disk. ReplayAll runs several such
// replays of one source side by side.
package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/cost"
	"videocdn/internal/metrics"
	"videocdn/internal/shard"
	"videocdn/internal/trace"
)

// Options tune a replay.
type Options struct {
	// BucketSeconds is the series resolution. Defaults to 3600 (1h).
	BucketSeconds int64
	// SteadyFraction is the fraction of trace *time* to skip before
	// steady-state accounting begins. Defaults to 0.5 (the paper's
	// "average over the second half of the month").
	SteadyFraction float64
	// Progress, if non-nil, is called every ProgressEvery requests.
	// total is the source's request count, or -1 when the source is
	// streaming and its length is unknown — progress printers must
	// handle -1 by reporting rate/count only, not a percentage.
	Progress      func(done, total int)
	ProgressEvery int
	// Workers bounds the goroutines ReplayParallel uses (ignored by
	// Replay). Defaults to min(shard count, GOMAXPROCS).
	Workers int
}

// normalize applies defaults and validates the option values shared by
// both replay engines.
func (opt *Options) normalize() error {
	if opt.BucketSeconds == 0 {
		opt.BucketSeconds = 3600
	}
	if opt.BucketSeconds < 0 {
		return fmt.Errorf("sim: BucketSeconds must be positive, got %d", opt.BucketSeconds)
	}
	if opt.SteadyFraction == 0 {
		opt.SteadyFraction = 0.5
	}
	if opt.SteadyFraction < 0 || opt.SteadyFraction >= 1 {
		return fmt.Errorf("sim: SteadyFraction must be in [0,1), got %v", opt.SteadyFraction)
	}
	return nil
}

// Result is the outcome of one replay.
type Result struct {
	// Algorithm is the cache's Name().
	Algorithm string
	// Model is the cost model used for efficiency accounting.
	Model cost.Model
	// Total accumulates the whole trace; Steady only the tail
	// configured by SteadyFraction.
	Total, Steady cost.Counters
	// Series is the bucketed time series over the full replay.
	Series *metrics.Series
	// Requests replayed, and how many were served vs redirected.
	Requests, Served, Redirected int
	// FilledChunks / EvictedChunks totals (disk churn).
	FilledChunks, EvictedChunks int64
}

// Efficiency is the steady-state cache efficiency (Eq. 2).
func (r *Result) Efficiency() float64 { return r.Steady.Efficiency(r.Model) }

// IngressRatio is the steady-state ingress-to-egress percentage.
func (r *Result) IngressRatio() float64 { return r.Steady.IngressRatio() }

// RedirectRatio is the steady-state redirected-bytes ratio.
func (r *Result) RedirectRatio() float64 { return r.Steady.RedirectRatio() }

// merge folds other's accounting into r. Every field is an integer sum
// over disjoint request sets, so merging per-shard results in shard
// order reproduces the sequential totals exactly.
func (r *Result) merge(other *Result) error {
	r.Total.Add(other.Total)
	r.Steady.Add(other.Steady)
	r.Requests += other.Requests
	r.Served += other.Served
	r.Redirected += other.Redirected
	r.FilledChunks += other.FilledChunks
	r.EvictedChunks += other.EvictedChunks
	return r.Series.Merge(other.Series)
}

// span extracts and validates the replay window shared by both
// engines: the source must know its time span (the steady-state cutoff
// is computed from it) and must not be empty.
func span(src trace.Source, opt Options) (start, end, steadyFrom int64, err error) {
	if src == nil {
		return 0, 0, 0, errors.New("sim: nil trace source")
	}
	if src.Len() == 0 {
		return 0, 0, 0, errors.New("sim: empty trace")
	}
	start, end, known := src.TimeSpan()
	if !known {
		return 0, 0, 0, errors.New("sim: source does not know its time span; steady-state accounting needs it (materialize the trace, or use a columnar trace directory whose manifest records the span)")
	}
	if end < start {
		return 0, 0, 0, fmt.Errorf("sim: source time span [%d,%d] is inverted", start, end)
	}
	steadyFrom = start + int64(opt.SteadyFraction*float64(end-start))
	return start, end, steadyFrom, nil
}

// Job is one independent replay task for ReplayAll.
type Job struct {
	// Name keys the result map (defaults to the cache's Name()).
	Name  string
	Cache core.Cache
	Model cost.Model
}

// ReplayAll replays the same source through several independent caches
// concurrently (one goroutine per job; each job streams its own
// cursor, so the source is never materialized). Errors from all
// failing jobs are collected and joined; on success, opt.Progress (if
// set) is invoked one final time with done == total so progress bars
// reach 100% (skipped when the source length is unknown).
func ReplayAll(jobs []Job, src trace.Source, opt Options) (map[string]*Result, error) {
	results := make([]*Result, len(jobs))
	jobErrs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], jobErrs[i] = Replay(jobs[i].Cache, src, jobs[i].Model, opt)
		}(i)
	}
	wg.Wait()
	var errs []error
	out := make(map[string]*Result, len(jobs))
	for i, job := range jobs {
		if jobErrs[i] != nil {
			errs = append(errs, fmt.Errorf("sim: job %q: %w", jobName(job), jobErrs[i]))
			continue
		}
		out[jobName(job)] = results[i]
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	if opt.Progress != nil {
		if total := src.Len(); total >= 0 {
			opt.Progress(int(total), int(total))
		}
	}
	return out, nil
}

func jobName(j Job) string {
	if j.Name != "" {
		return j.Name
	}
	if j.Cache != nil {
		return j.Cache.Name()
	}
	return "?"
}

// Replay drives the source's sequential order through the cache under
// the given cost model. The stream must be time-ordered. Accounting
// follows Section 4.2: requested bytes are the byte range of every
// request; fills count whole chunks; redirects count the request's
// byte range.
func Replay(c core.Cache, src trace.Source, model cost.Model, opt Options) (*Result, error) {
	if c == nil {
		return nil, errors.New("sim: nil cache")
	}
	if err := opt.normalize(); err != nil {
		return nil, err
	}
	_, _, steadyFrom, err := span(src, opt)
	if err != nil {
		return nil, err
	}
	series, err := metrics.NewSeries(opt.BucketSeconds)
	if err != nil {
		return nil, err
	}
	res := &Result{Algorithm: c.Name(), Model: model, Series: series}
	var tick func()
	if opt.Progress != nil && opt.ProgressEvery > 0 {
		total := int(src.Len())
		if src.Len() < 0 {
			total = -1
		}
		done := 0
		tick = func() {
			done++
			if done%opt.ProgressEvery == 0 {
				opt.Progress(done, total)
			}
		}
	}
	cur, err := src.Cursor()
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	if err := replayLoop(c, cur, steadyFrom, series, res, tick); err != nil {
		return nil, err
	}
	return res, nil
}

// replayLoop is the accounting core shared by both engines: it streams
// cur (a whole trace, or one shard's subsequence) through c, validating
// time order and outcome invariants and accumulating into res and
// series. tick, if non-nil, is called once per request after
// accounting. The loop holds no per-request state beyond the reused
// Request — with a streaming cursor its memory is the cursor's block
// buffers, independent of trace length.
func replayLoop(c core.Cache, cur trace.Cursor, steadyFrom int64, series *metrics.Series, res *Result, tick func()) error {
	var r trace.Request
	var last int64
	for i := 0; ; i++ {
		ok, err := cur.Next(&r)
		if err != nil {
			return fmt.Errorf("sim: reading request %d: %w", i, err)
		}
		if !ok {
			return nil
		}
		if i > 0 && r.Time < last {
			return fmt.Errorf("sim: request %d out of order (t=%d after %d)", i, r.Time, last)
		}
		last = r.Time
		out := c.HandleRequest(r)

		var cnt cost.Counters
		cnt.Requested = r.Bytes()
		switch out.Decision {
		case core.Serve:
			if out.FilledBytes < 0 || out.FilledChunks < 0 {
				return fmt.Errorf("sim: request %d: negative fill accounting %+v", i, out)
			}
			if out.FilledIDs != nil && len(out.FilledIDs) != out.FilledChunks {
				return fmt.Errorf("sim: request %d: FilledIDs/FilledChunks mismatch (%d vs %d)",
					i, len(out.FilledIDs), out.FilledChunks)
			}
			if out.EvictedIDs != nil && len(out.EvictedIDs) != out.EvictedChunks {
				return fmt.Errorf("sim: request %d: EvictedIDs/EvictedChunks mismatch (%d vs %d)",
					i, len(out.EvictedIDs), out.EvictedChunks)
			}
			cnt.Filled = out.FilledBytes
			res.Served++
		case core.Redirect:
			if out.FilledChunks != 0 || out.FilledBytes != 0 {
				return fmt.Errorf("sim: request %d: redirect with nonzero fill %+v", i, out)
			}
			cnt.Redirected = r.Bytes()
			res.Redirected++
		default:
			return fmt.Errorf("sim: request %d: unknown decision %v", i, out.Decision)
		}
		res.FilledChunks += int64(out.FilledChunks)
		res.EvictedChunks += int64(out.EvictedChunks)
		res.Total.Add(cnt)
		if r.Time >= steadyFrom {
			res.Steady.Add(cnt)
		}
		series.Add(r.Time, cnt)
		res.Requests++
		if tick != nil {
			tick()
		}
	}
}

// filterCursor keeps only the requests owned by one group shard.
type filterCursor struct {
	c           trace.Cursor
	groupShards int
	want        int
}

func (f *filterCursor) Next(req *trace.Request) (bool, error) {
	for {
		ok, err := f.c.Next(req)
		if !ok || err != nil {
			return ok, err
		}
		if chunk.ShardOf(req.Video, f.groupShards) == f.want {
			return true, nil
		}
	}
}

func (f *filterCursor) Close() error { return f.c.Close() }

// ReplayParallel replays a time-ordered source through a sharded cache
// group, one worker per shard (bounded by opt.Workers). It exists only
// for the repository benchmark's parallel-speedup metric: the
// simulator otherwise drives one cache per replay. Each worker streams
// the whole source and keeps the requests of its own shard — the same
// video placement (chunk.ShardOf) the group's dispatch uses — so it
// sees exactly the request subsequence its sub-cache would have seen
// under a sequential replay of the group, in the same order. The
// sub-caches share no mutable state, so no locks are taken on the
// request path.
//
// The merged Result is bit-identical to Replay(g, src, model, opt):
// decisions match per request, and every accounting field is an
// integer sum over disjoint per-shard sets, which commutes. Progress
// reporting is approximate during the run (workers race to the shared
// counter) but always ends with a final (total, total) call when the
// source length is known.
func ReplayParallel(g *shard.Group, src trace.Source, model cost.Model, opt Options) (*Result, error) {
	if g == nil {
		return nil, errors.New("sim: nil shard group")
	}
	if err := opt.normalize(); err != nil {
		return nil, err
	}
	start, _, steadyFrom, err := span(src, opt)
	if err != nil {
		return nil, err
	}
	n := g.NumShards()

	// An in-memory slice claims to be one globally time-ordered trace;
	// per-shard streams only expose order violations within a shard, so
	// validate the global order up front (one O(N) scan, no copies).
	if ss, ok := src.(*trace.SliceSource); ok {
		reqs := ss.Requests()
		for i := 1; i < len(reqs); i++ {
			if reqs[i].Time < reqs[i-1].Time {
				return nil, fmt.Errorf("sim: request %d out of order (t=%d after %d)", i, reqs[i].Time, reqs[i-1].Time)
			}
		}
	}

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	// Progress: workers bump a shared counter; the callback itself is
	// serialized so user code need not be thread-safe.
	total := int(src.Len())
	if src.Len() < 0 {
		total = -1
	}
	var done atomic.Int64
	var progressMu sync.Mutex
	tickFor := func() func() {
		if opt.Progress == nil || opt.ProgressEvery <= 0 {
			return nil
		}
		return func() {
			d := done.Add(1)
			if d%int64(opt.ProgressEvery) == 0 {
				progressMu.Lock()
				opt.Progress(int(d), total)
				progressMu.Unlock()
			}
		}
	}

	shardRes := make([]*Result, n)
	shardErr := make([]error, n)
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range work {
				base, err := src.Cursor()
				if err != nil {
					shardErr[s] = fmt.Errorf("sim: shard %d: %w", s, err)
					continue
				}
				// Anchor every shard's series at the global trace start
				// so merged buckets align with the sequential series.
				cur := &filterCursor{c: base, groupShards: n, want: s}
				series, err := metrics.NewSeriesAt(opt.BucketSeconds, start)
				if err != nil {
					cur.Close()
					shardErr[s] = err
					continue
				}
				r := &Result{Series: series}
				err = replayLoop(g.Shard(s), cur, steadyFrom, series, r, tickFor())
				if cerr := cur.Close(); err == nil && cerr != nil {
					err = cerr
				}
				if err != nil {
					shardErr[s] = fmt.Errorf("sim: shard %d: %w", s, err)
					continue
				}
				shardRes[s] = r
			}
		}()
	}
	for s := 0; s < n; s++ {
		work <- s
	}
	close(work)
	wg.Wait()

	if err := errors.Join(shardErr...); err != nil {
		return nil, err
	}

	// Deterministic merge in shard order.
	mergedSeries, err := metrics.NewSeriesAt(opt.BucketSeconds, start)
	if err != nil {
		return nil, err
	}
	merged := &Result{Algorithm: g.Name(), Model: model, Series: mergedSeries}
	for _, r := range shardRes {
		if r == nil {
			continue
		}
		if err := merged.merge(r); err != nil {
			return nil, err
		}
	}
	if opt.Progress != nil && total >= 0 {
		opt.Progress(total, total)
	}
	return merged, nil
}
