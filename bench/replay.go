package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"videocdn/internal/core"
	"videocdn/internal/cost"
	"videocdn/internal/policy"
	"videocdn/internal/shard"
	"videocdn/internal/sim"
	"videocdn/internal/trace"
	tracegen "videocdn/internal/workload"
)

// replayRig is the replay-cafe workload's input: a seeded trace of the
// named profile, and the means to build policies over the workload's
// disk.
type replayRig struct {
	w     *workload
	reqs  []trace.Request
	model cost.Model
	cfg   core.Config
	genS  float64 // seconds spent generating the trace
}

func newReplayRig(w *workload, seed int64) (*replayRig, error) {
	p, err := tracegen.ProfileByName(w.Profile)
	if err != nil {
		return nil, err
	}
	p.Seed = seed
	if w.MaxVideoMB > 0 {
		p.MaxVideoMB = w.MaxVideoMB
	}
	t0 := time.Now()
	// The trace is the union of ProfileParts independent slices of the
	// profile (SplitProfile: volume, catalog and churn divided, each
	// slice with its own derived seed). One slice's cost hangs on the
	// sizes its few top videos happen to draw; the union averages that
	// out, so seeds differ in content but little in cost.
	parts, err := tracegen.SplitProfile(p, w.ProfileParts)
	if err != nil {
		return nil, err
	}
	traces := make([][]trace.Request, len(parts))
	for i, part := range parts {
		g, err := tracegen.NewGenerator(part)
		if err != nil {
			return nil, err
		}
		if traces[i], err = g.Generate(w.Days); err != nil {
			return nil, err
		}
	}
	reqs := trace.Merge(traces...)
	if len(reqs) < w.IterationRequests || w.IterationRequests%w.BatchRequests != 0 {
		return nil, fmt.Errorf("workload %s: %d requests generated for iterations of %d in batches of %d", w.Name, len(reqs), w.IterationRequests, w.BatchRequests)
	}
	model, err := cost.NewModel(w.Alpha)
	if err != nil {
		return nil, err
	}
	return &replayRig{
		w: w, reqs: reqs, model: model, genS: time.Since(t0).Seconds(),
		cfg: core.Config{ChunkSize: w.ChunkBytes, DiskChunks: w.DiskChunks, ReuseOutcomeBuffers: true},
	}, nil
}

func (r *replayRig) newCache(name string) (core.Cache, error) {
	return policy.NewWithEnv(name, r.cfg, policy.Env{Alpha: r.w.Alpha}, nil)
}

// digestCache folds every outcome into an FNV-1a digest and keeps its
// own byte ledger, so a replay's output can be compared with another
// replay's and with sim's accounting.
type digestCache struct {
	core.Cache
	sum   uint64
	bytes cost.Counters
}

// fnv1a folds the eight bytes of v into the FNV-1a state h.
func fnv1a(h, v uint64) uint64 {
	for k := 0; k < 8; k++ {
		h = (h ^ v&0xff) * 1099511628211
		v >>= 8
	}
	return h
}

func (d *digestCache) HandleRequest(r trace.Request) core.Outcome {
	out := d.Cache.HandleRequest(r)
	h := fnv1a(d.sum, uint64(out.Decision))
	h = fnv1a(h, uint64(len(out.FilledIDs)))
	for _, id := range out.FilledIDs {
		h = fnv1a(h, id.Key())
	}
	for _, id := range out.EvictedIDs {
		h = fnv1a(h, id.Key())
	}
	d.sum = h
	d.bytes.Requested += r.Bytes()
	if out.Decision == core.Redirect {
		d.bytes.Redirected += r.Bytes()
	} else {
		d.bytes.Filled += out.FilledBytes
	}
	return out
}

// replayer runs the first IterationRequests requests of the rig's trace
// through sim.Replay on one goroutine, a batch per operation, and
// starts over on a fresh policy whenever it gets to the end. Every
// iteration is the same work from the same cold start, so a faster
// policy completes more iterations rather than other requests, rates
// are comparable from iteration to iteration, and every iteration must
// end in the same outcome digest.
type replayer struct {
	rig   *replayRig
	cache *digestCache
	next  int           // next batch of this iteration
	total cost.Counters // sim's own accounting of this iteration
	busy  time.Duration // replay time of this iteration

	iterations []time.Duration // replay time of each completed iteration
	first      iteration       // what the first completed iteration came to
	problems   []string
}

type iteration struct {
	digest uint64
	total  cost.Counters
}

func newReplayer(rig *replayRig) (*replayer, error) {
	p := &replayer{rig: rig}
	return p, p.reset()
}

func (p *replayer) reset() error {
	c, err := p.rig.newCache(p.rig.w.Policy)
	if err != nil {
		return err
	}
	const fnvOffset = 14695981039346656037
	p.cache, p.next, p.total, p.busy = &digestCache{Cache: c, sum: fnvOffset}, 0, cost.Counters{}, 0
	return nil
}

func (p *replayer) problem(format string, args ...any) sample {
	if len(p.problems) < 5 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
	return sample{failed: true}
}

// op replays the next batch. One batch is one operation of the
// workload: its latency is the batch's replay time.
func (p *replayer) op(int, int64) sample {
	size := p.rig.w.BatchRequests
	batch := p.rig.reqs[p.next*size : (p.next+1)*size]
	p.next++
	t0 := time.Now()
	res, err := sim.Replay(p.cache, trace.Slice(batch), p.rig.model, sim.Options{})
	lat := time.Since(t0)
	if err != nil {
		return p.problem("batch %d: %v", p.next-1, err)
	}
	p.total.Add(res.Total)
	p.busy += lat
	s := sample{lat: lat, ttfb: lat, served: res.Total.Requested - res.Total.Redirected, redirected: res.Total.Redirected}
	if p.next*size < p.rig.w.IterationRequests {
		return s
	}
	// The iteration is complete: check it, then start over.
	done := iteration{p.cache.sum, p.total}
	if p.total != p.cache.bytes {
		s = p.problem("Eq. 2 identity broken: sim counted %+v, the outcomes add up to %+v", p.total, p.cache.bytes)
	}
	if len(p.iterations) == 0 {
		p.first = done
	} else if done != p.first {
		s = p.problem("iteration %d ended in digest %x and bytes %+v, the first in %x and %+v", len(p.iterations), done.digest, done.total, p.first.digest, p.first.total)
	}
	p.iterations = append(p.iterations, p.busy)
	if err := p.reset(); err != nil {
		return p.problem("%v", err)
	}
	return s
}

// replaySetups is how many times an end-to-end run of the replay
// workload sets up. A set-up takes a fifth of a second, so the median of
// nine costs little and is steadier than that of three.
const replaySetups = 9

// replayEndToEnd is the -trace 0 run of the replay workload:
// replaySetups set-ups (trace generation and policy construction), then
// the same closed loop as an http workload with one worker and a batch
// of requests as the operation.
func replayEndToEnd(_ *env, w *workload, seed int64, window time.Duration) (*result, error) {
	res := &result{}
	var rig *replayRig
	var rp *replayer
	var setups []float64
	for l := 0; l < replaySetups; l++ {
		t0 := time.Now()
		var err error
		if rig, err = newReplayRig(w, seed); err != nil {
			return nil, err
		}
		if rp, err = newReplayer(rig); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	runtime.GC()
	pid := os.Getpid()
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	var next atomic.Int64
	closed := runClosed(1, window, &next, rp.op)
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	rss, err := procPeakRSS(pid)
	if err != nil {
		return nil, err
	}

	res.attempted = len(closed.samples)
	res.failed = closed.failed()
	res.problems = append(res.problems, rp.problems...)
	if len(rp.iterations) < 2 {
		res.problems = append(res.problems, fmt.Sprintf("%d iterations of %d requests completed: nothing to compare digests with", len(rp.iterations), w.IterationRequests))
	}

	// Every iteration is the same work, batch for batch, so a metric is
	// a median over iterations, not over the window: a stretch of the
	// run that a neighbour on the host slowed down moves one iteration,
	// not the result. The rate is that of the median iteration. A
	// batch's latency is the median over the iterations of that same
	// batch, which takes a preemption out of the one batch it hit; p50
	// and p95 are then taken over the batches of an iteration.
	perIter := w.IterationRequests / w.BatchRequests
	var seconds []float64
	for _, d := range rp.iterations {
		seconds = append(seconds, d.Seconds())
	}
	batchMs := make([]float64, 0, perIter)
	if len(rp.iterations) > 0 {
		across := make([]float64, len(rp.iterations))
		for b := 0; b < perIter; b++ {
			for i := range rp.iterations {
				across[i] = float64(closed.samples[i*perIter+b].lat) / float64(time.Millisecond)
			}
			batchMs = append(batchMs, median(across))
		}
		sort.Float64s(batchMs)
	}
	iterServed := float64(rp.first.total.Requested - rp.first.total.Redirected)
	res.add("setup_s", "s", median(setups))
	res.add("req_per_s", "1/s", ratio(float64(w.IterationRequests), median(seconds)))
	res.add("goodput_mb_s", "MB/s", ratio(iterServed/1e6, median(seconds)))
	res.addPercentile("lat_p50_ms", "ms", batchMs, 50)
	res.addPercentile("lat_p95_ms", "ms", batchMs, 95)
	res.add("cpu_s_per_gb", "s/GB", ratio((cpu1-cpu0).Seconds(), float64(closed.servedBytes())/1e9))
	res.add("rss_peak_mb", "MB", rss)
	res.add("efficiency", "ratio", rp.first.total.Efficiency(rig.model))
	res.notes = append(res.notes,
		fmt.Sprintf("workload %s: %s", w.Name, w.Why),
		fmt.Sprintf("an operation is one batch of %d requests through sim.Replay; bytes are simulated (requested bytes the policy served), the process under test is the bench itself", w.BatchRequests),
		fmt.Sprintf("set-ups %.3fs (trace generation %.3fs of the last); closed loop %v: %d batches", setups, rig.genS, window, len(closed.samples)),
		fmt.Sprintf("%d iterations over the first %d of %d generated requests, each from a cold policy and each ending in outcome digest %x; seconds per iteration: %.3f",
			len(rp.iterations), w.IterationRequests, len(rig.reqs), rp.first.digest, seconds))
	return res, nil
}

// ---------- per-layer pass ----------

// replayLayers is the -trace 1 run of the replay workload. Every part
// works on the same prefix of the trace, sized by TraceRPS x seconds, so
// its counts repeat exactly for a seed.
func replayLayers(e *env, w *workload, seed int64, window time.Duration) (*result, error) {
	rig, err := newReplayRig(w, seed)
	if err != nil {
		return nil, err
	}
	n := min(int(float64(w.TraceRPS)*window.Seconds()), len(rig.reqs))
	prefix := rig.reqs[:n]
	src := trace.Slice(prefix)
	res := &result{attempted: n}
	perReq := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(n) }

	// The policy alone: HandleRequest in a loop, no engine around it.
	direct := func(name string) (time.Duration, float64, error) {
		c, err := rig.newCache(name)
		if err != nil {
			return 0, 0, err
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for _, r := range prefix {
			c.HandleRequest(r)
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		return d, float64(m1.Mallocs-m0.Mallocs) / float64(n), nil
	}
	own, allocs, err := direct(w.Policy)
	if err != nil {
		return nil, err
	}
	xlru, _, err := direct("xlru")
	if err != nil {
		return nil, err
	}
	res.add("policy.cafe_ns_per_req", "ns", perReq(own))
	res.add("policy.xlru_ns_per_req", "ns", perReq(xlru))
	res.add("policy.allocs_per_req", "count", allocs)

	// The engine around the policy, and the cursor alone.
	c, err := rig.newCache(w.Policy)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	plain, err := sim.Replay(c, src, rig.model, sim.Options{})
	if err != nil {
		return nil, err
	}
	plainD := time.Since(t0)
	res.add("sim.replay_ns_per_req", "ns", perReq(plainD))
	cur, err := trace.Sequential(src)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	var req trace.Request
	drained := 0
	for {
		ok, err := cur.Next(&req)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		drained++
	}
	res.add("trace.cursor_ns_per_req", "ns", perReq(time.Since(t0)))
	cur.Close()
	if drained != n {
		res.problems = append(res.problems, fmt.Sprintf("cursor yielded %d of %d requests", drained, n))
	}

	// The same replay with the policy boundary timed.
	t := newTracer(n + 16)
	tc, err := rig.newCache(w.Policy)
	if err != nil {
		return nil, err
	}
	t.on.Store(true)
	t0 = time.Now()
	traced, err := sim.Replay(&timedCache{Cache: tc, t: t, chunkSize: w.ChunkBytes}, src, rig.model, sim.Options{})
	if err != nil {
		return nil, err
	}
	tracedD := time.Since(t0)
	t.on.Store(false)
	t.resolve()
	if err := os.MkdirAll(filepath.Join(e.root, outDir), 0o755); err != nil {
		return nil, err
	}
	tracePath := filepath.Join(e.root, outDir, "trace-"+w.Name+".jsonl")
	if err := t.writeJSONL(tracePath); err != nil {
		return nil, err
	}
	lt := t.layerTimes()
	res.add("policy.decide_us_mean", "us", mean(lt.decideUs))
	res.addPercentile("policy.decide_us_p99", "us", lt.decideUs, 99)
	res.add("policy.redirect_ratio", "ratio", ratio(float64(t.redirects), float64(n)))
	res.add("policy.fill_req_ratio", "ratio", ratio(float64(t.fillReqs), float64(t.served)))
	res.add("policy.filled_chunks_per_req", "count", ratio(float64(t.filled), float64(n)))
	res.add("policy.evicted_chunks_per_req", "count", ratio(float64(t.evicted), float64(n)))
	res.add("policy.chunk_hit_ratio", "ratio", ratio(float64(t.reqChunks-t.filled), float64(t.reqChunks)))
	res.add("policy.efficiency", "ratio", traced.Total.Efficiency(rig.model))
	if traced.Total != plain.Total {
		res.failed++
		res.problems = append(res.problems, fmt.Sprintf("timed replay counted %+v, plain replay %+v", traced.Total, plain.Total))
	}

	// Two shards: one after the other, then on two workers.
	group := func() (*shard.Group, error) {
		return shard.New(2, rig.cfg, func(_ int, sub core.Config) (core.Cache, error) {
			return policy.NewWithEnv(w.Policy, sub, policy.Env{Alpha: w.Alpha}, nil)
		})
	}
	g, err := group()
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	seq, err := sim.Replay(g, src, rig.model, sim.Options{})
	if err != nil {
		return nil, err
	}
	seqD := time.Since(t0)
	if g, err = group(); err != nil {
		return nil, err
	}
	t0 = time.Now()
	par, err := sim.ReplayParallel(g, src, rig.model, sim.Options{Workers: 2})
	if err != nil {
		return nil, err
	}
	res.add("sim.parallel_speedup_2w", "ratio", ratio(seqD.Seconds(), time.Since(t0).Seconds()))
	if seq.Total != par.Total || seq.Steady != par.Steady {
		res.failed++
		res.problems = append(res.problems, "parallel replay is not identical to sequential replay of the same shards")
	}
	res.add("workload.gen_s", "s", rig.genS)
	res.add("client.trace_rps_ratio", "ratio", ratio(plainD.Seconds(), tracedD.Seconds()))
	res.notes = append(res.notes,
		fmt.Sprintf("workload %s: %s", w.Name, w.Why),
		fmt.Sprintf("every part replays the first %d of %d generated requests from a cold policy; %d spans in %s", n, len(rig.reqs), len(t.spans), tracePath),
		fmt.Sprintf("policy share of the replay: %s takes %.0f ns of sim.Replay's %.0f ns per request", w.Policy, perReq(own), perReq(plainD)))
	return res, nil
}
