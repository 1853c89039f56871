package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Shares of -seconds a -trace 1 run of an http workload gives to its
// four parts. The child phases exist for what only a separate process
// can show (the server's own allocations and GC pauses, the generator's
// lateness); the two serial in-process passes give the span budget and
// the cost of recording it.
const (
	traceClosedShare   = 0.25
	traceOpenShare     = 0.25
	traceUntracedShare = 0.15
	traceTracedShare   = 0.35
)

// budgetTolerance is how far the layers' times may be from adding up to
// the handler's before the traced pass is rejected.
const budgetTolerance = 0.05

// outDir is where traces are written, under the checkout root.
const outDir = "bench/out"

// httpLayers is the -trace 1 run of an http workload.
func httpLayers(e *env, w *workload, seed int64, window time.Duration) (*result, error) {
	share := func(s float64) time.Duration { return time.Duration(float64(window) * s) }
	run, err := runChildren(e, w, seed, 1, share(traceClosedShare), share(traceOpenShare))
	if err != nil {
		return nil, err
	}
	nUntraced := max(int(float64(w.TraceRPS)*share(traceUntracedShare).Seconds()), 50)
	nTraced := max(int(float64(w.TraceRPS)*share(traceTracedShare).Seconds()), 50)
	bare, err := runSerial(e.root, w, seed, nUntraced, nil, nil)
	if err != nil {
		return nil, err
	}
	// A request crosses at most ~12 boundaries per chunk it touches.
	t := newTracer(nTraced * (16 + 16*w.RangeChunks))
	traced, err := runSerial(e.root, w, seed, nTraced, t, nil)
	if err != nil {
		return nil, err
	}
	t.resolve()
	if err := os.MkdirAll(filepath.Join(e.root, outDir), 0o755); err != nil {
		return nil, err
	}
	tracePath := filepath.Join(e.root, outDir, "trace-"+w.Name+".jsonl")
	if err := t.writeJSONL(tracePath); err != nil {
		return nil, err
	}

	res := &result{
		attempted: run.warmOps + len(run.closed.samples) + len(run.open.samples) + bare.warmOps + bare.requests + traced.warmOps + traced.requests,
		failed:    run.failed + bare.failed + traced.failed,
	}
	for _, errs := range [][]string{run.errs, bare.errs, traced.errs} {
		res.problems = append(res.problems, errs...)
	}
	run.describe(w, res)
	clientLayer(res, run, bare, traced)
	spanLayers(res, t, traced, run)
	res.notes = append(res.notes, fmt.Sprintf("serial passes: %d untraced requests in %v, %d traced in %v; %d spans in %s",
		bare.requests, bare.wall.Round(time.Millisecond), traced.requests, traced.wall.Round(time.Millisecond), len(t.spans), tracePath))
	return res, nil
}

// clientLayer reports the generator's own validity numbers.
func clientLayer(res *result, run *childRun, bare, traced *serial) {
	openLat := run.open.sortedMs(fieldLat)
	res.addPercentile("client.open_lat_p50_ms", "ms", openLat, 50)
	res.addPercentile("client.open_lat_p95_ms", "ms", openLat, 95)
	res.addPercentile("client.late_p95_ms", "ms", run.open.sortedMs(fieldLate), 95)
	late, _ := res.value("client.late_p95_ms")
	openP50, _ := res.value("client.open_lat_p50_ms")
	if limit := max(1, 0.05*openP50); late > limit {
		res.problems = append(res.problems, fmt.Sprintf("open loop invalid: the generator sent p95 %.3f ms late, limit %.3f ms", late, limit))
	}
	res.addPercentile("client.ttfb_p50_ms", "ms", run.closed.sortedMs(fieldTTFB), 50)
	res.add("client.verify_share", "ratio", run.verifyShare)
	res.add("client.trace_rps_ratio", "ratio",
		ratio(float64(traced.requests)/traced.wall.Seconds(), float64(bare.requests)/bare.wall.Seconds()))
}

// spanLayers reduces the traced pass to the per-layer metrics and
// checks that they add up. Every *_us_mean is time per request spent in
// that layer and in no layer below it, so the means are addends of
// edge.handler_us_mean.
func spanLayers(res *result, t *tracer, traced *serial, run *childRun) {
	lt := t.layerTimes()
	n := float64(lt.requests)
	us := func(kinds ...int) float64 {
		var d time.Duration
		for _, k := range kinds {
			d += lt.self[k]
		}
		return ratio(float64(d)/1e3, n)
	}
	perReq := func(kind int) float64 { return ratio(float64(lt.calls[kind]), n) }
	if lt.requests != traced.requests {
		res.problems = append(res.problems, fmt.Sprintf("traced pass sent %d requests but recorded %d handler spans", traced.requests, lt.requests))
	}
	if t.dropped > 0 {
		res.problems = append(res.problems, fmt.Sprintf("span slab full: %d spans dropped", t.dropped))
	}

	handler := mean(lt.handlerUs)
	res.add("edge.handler_us_mean", "us", handler)
	res.addPercentile("edge.handler_us_p99", "us", lt.handlerUs, 99)
	res.add("edge.self_us_mean", "us", us(spanHandler))
	res.add("edge.write_us_mean", "us", us(spanWrite))
	closedOps := float64(len(run.closed.samples))
	res.add("edge.allocs_per_req", "count", ratio(run.mallocsClosed, closedOps))
	res.add("edge.gc_pause_ms", "ms", float64(run.gcPauseClosed)/1e6)
	chunks := float64(traced.paths.BorrowChunks + traced.paths.SendfileChunks + traced.paths.CopyChunks)
	res.add("edge.borrow_share", "ratio", ratio(float64(traced.paths.BorrowChunks), chunks))
	res.add("edge.sendfile_share", "ratio", ratio(float64(traced.paths.SendfileChunks), chunks))
	res.add("edge.copy_share", "ratio", ratio(float64(traced.paths.CopyChunks), chunks))

	res.add("policy.decide_us_mean", "us", us(spanDecide))
	res.addPercentile("policy.decide_us_p99", "us", lt.decideUs, 99)
	res.add("policy.redirect_ratio", "ratio", ratio(float64(t.redirects), n))
	res.add("policy.fill_req_ratio", "ratio", ratio(float64(t.fillReqs), float64(t.served)))
	res.add("policy.filled_chunks_per_req", "count", ratio(float64(t.filled), n))
	res.add("policy.evicted_chunks_per_req", "count", ratio(float64(t.evicted), n))
	res.add("policy.chunk_hit_ratio", "ratio", ratio(float64(t.reqChunks-t.filled), float64(t.reqChunks)))

	res.add("store.read_us_mean", "us", us(spanRead))
	res.add("store.read_calls_per_req", "count", perReq(spanRead))
	res.add("store.has_us_mean", "us", us(spanHas))
	res.add("store.has_calls_per_req", "count", perReq(spanHas))
	res.add("store.put_us_mean", "us", us(spanPut))
	res.add("store.put_calls_per_req", "count", perReq(spanPut))
	res.add("store.delete_us_mean", "us", us(spanDelete))
	res.add("store.delete_calls_per_req", "count", perReq(spanDelete))
	res.add("store.hot_hit_ratio", "ratio", ratio(float64(traced.tier.HotHits), float64(traced.tier.HotHits+traced.tier.ColdHits+traced.tier.Misses)))

	res.add("origin.size_lookup_us_mean", "us", us(spanSize))
	res.add("origin.size_lookups_per_req", "count", ratio(float64(t.sizeLookups), n))
	res.add("origin.fetch_us_mean", "us", us(spanFetch, spanBody))
	res.add("origin.fetches_per_req", "count", perReq(spanFetch))
	res.add("origin.retries", "count", float64(traced.retries))
	res.add("origin.serial_fetch_share", "ratio", serialFetchShare(t.fetches))
	res.add("policy.efficiency", "ratio", traced.efficiency)

	// The budget: every layer's self time, plus whatever no handler span
	// contained, against the handler's own mean.
	var sum time.Duration
	for _, d := range lt.self {
		sum += d
	}
	budget := ratio(float64(sum)/1e3/n, handler)
	res.add("edge.budget_ratio", "ratio", budget)
	res.notes = append(res.notes, fmt.Sprintf(
		"budget per request: edge.self %.1f + edge.write %.1f + policy.decide %.1f + store (read %.1f, has %.1f, put %.1f, delete %.1f) + origin (size %.1f, fetch %.1f) = %.1f us vs edge.handler %.1f us (x%.4f); outside any handler %.1f us, overlapping %.1f us",
		us(spanHandler), us(spanWrite), us(spanDecide), us(spanRead), us(spanHas), us(spanPut), us(spanDelete), us(spanSize), us(spanFetch, spanBody),
		float64(sum)/1e3/n, handler, budget, float64(lt.orphan)/1e3/n, float64(lt.overlap)/1e3/n))
	if budget < 1-budgetTolerance || budget > 1+budgetTolerance {
		res.problems = append(res.problems, fmt.Sprintf("layer budget does not close: layers sum to %.4f of edge.handler_us_mean", budget))
	}
}
