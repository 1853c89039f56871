// Command cdnsim replays a request trace through a caching algorithm
// and reports the paper's metrics: cache efficiency (Eq. 2), ingress
// and redirect ratios, plus an optional hourly series CSV.
//
// Usage:
//
//	tracegen -profile europe -days 14 -o eu.trace   # a text trace
//	cdnsim -trace eu.trace -algo cafe -alpha 2 -disk-gb 16
//	cdnsim -trace eu.trace -algo xlru,cafe,psychic -alpha 2 -series series.csv
//	cdnsim -trace eu.trace -algo cafe -cpuprofile cpu.pprof -memprofile mem.pprof
//
//	# columnar trace directories (tracegen -dir) are detected
//	# automatically and replayed by streaming one cursor —
//	# a 100M-request replay runs at flat memory:
//	cdnsim -trace eu.tracedir -algo cafe -progress
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"videocdn/internal/core"
	"videocdn/internal/cost"
	"videocdn/internal/policy"
	_ "videocdn/internal/policy/all"
	"videocdn/internal/sim"
	"videocdn/internal/trace"
)

func main() {
	tracePath := flag.String("trace", "", "text trace file or columnar trace directory")
	algos := flag.String("algo", "cafe", "comma-separated registered policies: "+strings.Join(policy.Names(), ","))
	alpha := flag.Float64("alpha", 2, "fill-to-redirect preference alpha_F2R")
	diskGB := flag.Float64("disk-gb", 16, "disk size in GB")
	chunkMB := flag.Float64("chunk-mb", 2, "chunk size in MB")
	seriesOut := flag.String("series", "", "write hourly series CSV to this file")
	policyConfig := flag.String("policy-config", "", "policy parameters as k=v,k2=v2, given to every -algo (schema-validated per policy; see internal/policy)")
	progress := flag.Bool("progress", false, "print replay progress to stderr")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the replay to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile after the replay to this file")
	flag.Parse()

	if *tracePath == "" {
		fatal(fmt.Errorf("-trace is required"))
	}

	// The replay source: a columnar directory streams block by block;
	// a text file is read into memory.
	src, err := trace.Open(*tracePath)
	if err != nil {
		fatal(err)
	}
	_, fromDir := src.(*trace.Dir)
	if src.Len() == 0 {
		fatal(fmt.Errorf("trace %s is empty", *tracePath))
	}

	// fullTrace materializes the whole trace for the oracle algorithms
	// (psychic, belady) that precompute against every future request.
	// Streaming directories lose their flat-memory property here, so
	// warn loudly.
	var fullReqs []trace.Request
	fullTrace := func() []trace.Request {
		if fullReqs != nil {
			return fullReqs
		}
		if fromDir {
			fmt.Fprintf(os.Stderr,
				"cdnsim: warning: oracle algorithm needs the full future trace; materializing %d requests from %s into memory\n",
				src.Len(), *tracePath)
		}
		reqs, err := trace.Materialize(src)
		if err != nil {
			fatal(err)
		}
		fullReqs = reqs
		return fullReqs
	}

	chunkSize := int64(*chunkMB * (1 << 20))
	cfg := core.Config{
		ChunkSize:  chunkSize,
		DiskChunks: int(*diskGB * (1 << 30) / float64(chunkSize)),
	}
	model, err := cost.NewModel(*alpha)
	if err != nil {
		fatal(err)
	}

	var seriesFile *os.File
	if *seriesOut != "" {
		seriesFile, err = os.Create(*seriesOut)
		if err != nil {
			fatal(err)
		}
		defer seriesFile.Close()
		fmt.Fprintln(seriesFile, "algo,hour,requested_bytes,filled_bytes,redirected_bytes,ingress,redirect,efficiency")
	}

	if *cpuprofile != "" {
		pf, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer pf.Close()
		if err := pprof.StartCPUProfile(pf); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	var simOpts sim.Options
	if *progress {
		simOpts.ProgressEvery = 1 << 20
		start := time.Now()
		simOpts.Progress = progressPrinter(start)
	}

	fmt.Printf("%d requests, disk %d chunks (%.1f GB), alpha=%.2g\n\n%-8s %10s %10s %10s %9s %9s %9s\n",
		src.Len(), cfg.DiskChunks, *diskGB, *alpha, "algo", "eff", "ingress", "redirect", "served", "redirects", "elapsed")
	for _, name := range strings.Split(*algos, ",") {
		name = strings.TrimSpace(name)
		spec := name
		if *policyConfig != "" {
			spec += ":" + *policyConfig
		}
		factory, err := policy.Factory(spec, policy.Env{Alpha: *alpha, Future: fullTrace})
		if err != nil {
			fatal(err)
		}
		c, err := factory(0, cfg)
		if err != nil {
			fatal(err)
		}
		t0 := time.Now()
		res, err := sim.Replay(c, src, model, simOpts)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-8s %9.1f%% %9.1f%% %9.1f%% %9d %9d %9s\n",
			name, 100*res.Efficiency(), 100*res.IngressRatio(), 100*res.RedirectRatio(),
			res.Served, res.Redirected, time.Since(t0).Round(time.Millisecond))
		if seriesFile != nil {
			for _, b := range res.Series.Buckets() {
				if b.Counters.Requested == 0 {
					continue
				}
				fmt.Fprintf(seriesFile, "%s,%d,%d,%d,%d,%.4f,%.4f,%.4f\n",
					name, b.Start/3600, b.Counters.Requested, b.Counters.Filled,
					b.Counters.Redirected, b.Counters.IngressRatio(),
					b.Counters.RedirectRatio(), b.Counters.Efficiency(model))
			}
		}
	}

	if *memprofile != "" {
		mf, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		defer mf.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(mf); err != nil {
			fatal(err)
		}
	}
}

// progressPrinter returns a sim.Options.Progress callback writing to
// stderr. When total is known it prints a percentage; a total of -1
// means the source is streaming with unknown length, so it reports
// count and rate only — never a bogus percentage.
func progressPrinter(start time.Time) func(done, total int) {
	return func(done, total int) {
		elapsed := time.Since(start).Seconds()
		rate := float64(done) / elapsed
		if total >= 0 {
			fmt.Fprintf(os.Stderr, "\rreplay: %3.0f%% (%d/%d requests, %.0f req/s)   ",
				100*float64(done)/float64(total), done, total, rate)
			if done >= total {
				fmt.Fprintln(os.Stderr)
			}
		} else {
			fmt.Fprintf(os.Stderr, "\rreplay: %d requests (%.0f req/s)   ", done, rate)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cdnsim:", err)
	os.Exit(1)
}
