package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"videocdn/internal/cost"
	"videocdn/internal/edge"
)

// env is what every run needs from its surroundings.
type env struct {
	root      string // checkout root
	serverBin string // built cdnserver
	workers   int    // generator connections: min(nproc, max_connections)
}

// checkEq2 recomputes Eq. 2 from a /stats body's byte counters and
// requires the server's own figure to match bit for bit.
func checkEq2(st edge.Stats) error {
	model, err := cost.NewModel(st.Alpha)
	if err != nil {
		return err
	}
	c := cost.Counters{Requested: st.RequestedBytes, Filled: st.FilledBytes, Redirected: st.RedirectedBytes, PeerFilled: st.PeerFilledBytes}
	if got := c.Efficiency(model); got != st.Efficiency {
		return fmt.Errorf("Eq. 2 identity broken: /stats says %v, its byte counters give %v", st.Efficiency, got)
	}
	return nil
}

// windowEfficiency is Eq. 2 over the bytes counted between two /stats
// snapshots.
func windowEfficiency(before, after edge.Stats) (float64, cost.Counters) {
	d := cost.Counters{
		Requested:  after.RequestedBytes - before.RequestedBytes,
		Filled:     after.FilledBytes - before.FilledBytes,
		Redirected: after.RedirectedBytes - before.RedirectedBytes,
	}
	return d.Efficiency(cost.MustModel(after.Alpha)), d
}

// parallelDo runs do(worker, j) for j in [0, n) on the given number of
// workers and returns how many reported failure.
func parallelDo(workers int, n int64, do func(worker int, j int64) bool) int {
	var next, failed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := next.Add(1) - 1; j < n; j = next.Add(1) - 1 {
				if !do(w, j) {
					failed.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	return int(failed.Load())
}

// warmUp brings the edge to the workload's steady state. A resident
// catalog is swept until one whole sweep causes no fill and no
// redirect; a churning one is driven by the first WarmupRequests
// requests of its own stream, which must fill the disk, and the
// measured stream continues from there.
func warmUp(w *workload, gen *requestGen, load *httpLoad, workers int, stats func() (edge.Stats, error)) (ops, failed int, err error) {
	if gen.resident() {
		sweep := gen.sweep()
		for round := 0; round < 8; round++ {
			before, err := stats()
			if err != nil {
				return ops, failed, err
			}
			failed += parallelDo(workers, int64(len(sweep)), func(wk int, j int64) bool {
				return !load.exchange(wk, sweep[j]).failed
			})
			ops += len(sweep)
			after, err := stats()
			if err != nil {
				return ops, failed, err
			}
			if after.FilledBytes == before.FilledBytes && after.Redirected == before.Redirected {
				return ops, failed, nil
			}
		}
		return ops, failed, fmt.Errorf("warm-up: catalog sweeps still fill or redirect after 8 rounds")
	}
	failed = parallelDo(workers, w.WarmupRequests, func(wk int, j int64) bool {
		return !load.op(wk, j).failed
	})
	st, err := stats()
	if err != nil {
		return int(w.WarmupRequests), failed, err
	}
	if st.CachedChunks < w.DiskChunks-w.RangeChunks {
		return int(w.WarmupRequests), failed, fmt.Errorf("warm-up: %d of %d disk chunks full after %d requests: raise warmup_requests", st.CachedChunks, w.DiskChunks, w.WarmupRequests)
	}
	return int(w.WarmupRequests), failed, nil
}

// childRun is what the out-of-process phases of an http workload
// measured.
type childRun struct {
	setups       []float64 // seconds, one per launch
	workers      int
	warmOps      int
	closed, open phase
	failed       int
	errs         []string

	efficiency    float64
	bytes         cost.Counters // /stats deltas over closed+open
	cpuClosed     time.Duration // edge utime+stime over the closed phase
	mallocsClosed float64       // edge MemStats deltas over the closed phase
	gcPauseClosed time.Duration
	rssPeakMB     float64
	verifyShare   float64 // generator time spent checking bodies / closed wall time x workers
}

// runChildren measures workload w out of process: launches origin and
// edge `launches` times (setup_s is their median; the last launch is
// measured), then a closed-loop and an open-loop phase.
func runChildren(e *env, w *workload, seed int64, launches int, closedDur, openDur time.Duration) (*childRun, error) {
	gen := newRequestGen(*w, seed)
	run := &childRun{}
	workers := e.workers
	if w.Connections > 0 {
		workers = w.Connections
	}
	run.workers = workers
	var st *stack
	var load *httpLoad
	defer func() {
		if load != nil {
			load.close()
		}
		if st != nil {
			st.stop()
		}
	}()
	for l := 0; l < launches; l++ {
		if st != nil {
			run.errs = append(run.errs, load.errs...)
			load.close()
			st.stop()
			st, load = nil, nil
		}
		t0 := time.Now()
		var err error
		if st, err = startStack(e.serverBin, e.root, w); err != nil {
			return nil, err
		}
		if load, err = newHTTPLoad(w, gen, st.edge.addr, workers); err != nil {
			return nil, err
		}
		ops, failed, err := warmUp(w, gen, load, workers, st.stats)
		if err != nil {
			return nil, fmt.Errorf("%w; edge log:\n%s", err, st.edge.tail)
		}
		run.setups = append(run.setups, time.Since(t0).Seconds())
		run.warmOps += ops
		run.failed += failed
	}

	pid := st.edge.cmd.Process.Pid
	stats0, err := st.stats()
	if err != nil {
		return nil, err
	}
	mem0, err := st.memStats()
	if err != nil {
		return nil, err
	}
	runtime.GC() // the generator's own garbage from set-up is collected outside the window
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	var next atomic.Int64
	next.Store(w.WarmupRequests)
	verify0 := load.verifyNs.Load()
	run.closed = runClosed(workers, closedDur, &next, load.op)
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	run.verifyShare = float64(load.verifyNs.Load()-verify0) / (float64(closedDur) * float64(workers))
	mem1, err := st.memStats()
	if err != nil {
		return nil, err
	}
	run.cpuClosed = cpu1 - cpu0
	if run.mallocsClosed, run.gcPauseClosed, err = mem1.since(mem0); err != nil {
		return nil, err
	}

	if openDur > 0 {
		due := poissonSchedule(w.OpenRateRPS, openDur, seed)
		run.open = runOpen(workers, due, openDur, &next, load.op)
	}

	stats1, err := st.stats()
	if err != nil {
		return nil, err
	}
	run.efficiency, run.bytes = windowEfficiency(stats0, stats1)
	if run.rssPeakMB, err = procPeakRSS(pid); err != nil {
		return nil, err
	}
	run.failed += run.closed.failed() + run.open.failed()

	// What the clients received must be what the server says it sent:
	// Requested = served + Redirected, to the byte.
	var served, redirected int64
	for _, p := range []phase{run.closed, run.open} {
		for _, s := range p.samples {
			served += s.served
			redirected += s.redirected
		}
	}
	if run.failed == 0 && (served+redirected != run.bytes.Requested || redirected != run.bytes.Redirected) {
		run.failed++
		load.errs = append(load.errs, fmt.Sprintf("clients saw %d served + %d redirected bytes, /stats counted %d requested, %d redirected",
			served, redirected, run.bytes.Requested, run.bytes.Redirected))
	}
	run.errs = append(run.errs, load.errs...)
	return run, nil
}

// setupLaunches is how many times an end-to-end run launches and warms
// the stack: setup_s is the median, so one slow fork or one writeback
// burst does not decide it.
const setupLaunches = 3

// httpEndToEnd is the -trace 0 run of an http workload: three set-ups,
// then the whole window closed loop. The open-loop phase runs under
// -trace 1 only, see README.md for why its latencies are no end-to-end
// metrics.
func httpEndToEnd(e *env, w *workload, seed int64, window time.Duration) (*result, error) {
	run, err := runChildren(e, w, seed, setupLaunches, window, 0)
	if err != nil {
		return nil, err
	}
	res := &result{}
	run.endToEnd(res)
	run.describe(w, res)
	return res, nil
}

// endToEnd appends the end-to-end metrics and their validity checks.
func (run *childRun) endToEnd(res *result) {
	res.attempted = run.warmOps + len(run.closed.samples) + len(run.open.samples)
	res.failed = run.failed
	res.add("setup_s", "s", median(run.setups))
	opsRate, byteRate := run.closed.rates()
	res.add("req_per_s", "1/s", opsRate)
	res.add("goodput_mb_s", "MB/s", byteRate/1e6)
	served := float64(run.closed.servedBytes())
	lat := run.closed.sortedMs(fieldLat)
	res.addPercentile("lat_p50_ms", "ms", lat, 50)
	res.addPercentile("lat_p95_ms", "ms", lat, 95)
	res.add("cpu_s_per_gb", "s/GB", ratio(run.cpuClosed.Seconds(), served/1e9))
	res.add("rss_peak_mb", "MB", run.rssPeakMB)
	res.add("efficiency", "ratio", run.efficiency)
	res.problems = append(res.problems, run.errs...)
}

// describe adds the notes a reader needs beside the numbers.
func (run *childRun) describe(w *workload, res *result) {
	res.notes = append(res.notes,
		fmt.Sprintf("workload %s: %s", w.Name, w.Why),
		fmt.Sprintf("%d connections; set-ups %.3fs; warm-up %d requests; closed loop %v: %d ops; open loop %v at %g/s: %d ops",
			run.workers, run.setups, run.warmOps, run.closed.window, len(run.closed.samples), run.open.window, w.OpenRateRPS, len(run.open.samples)),
		fmt.Sprintf("window bytes: requested %d, filled %d, redirected %d", run.bytes.Requested, run.bytes.Filled, run.bytes.Redirected),
		fmt.Sprintf("body check (%s) took %.1f%% of the generator's closed-loop time", w.Verify, 100*run.verifyShare),
		sliceNote(run.closed))
}

// sliceNote shows the closed loop's completion rate slice by slice: a
// run disturbed from outside shows as a dip here.
func sliceNote(closed phase) string {
	ops, _ := closed.sliceRates()
	return fmt.Sprintf("closed-loop operations per second in %d slices: %.0f", rateSlices, ops)
}
