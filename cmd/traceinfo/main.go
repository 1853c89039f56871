// Command traceinfo characterizes a request trace: popularity skew,
// diurnal shape, intra-file prefix bias, request sizes and catalog
// churn — the dimensions that drive video-cache behaviour (Sections 2
// and 9 of the paper).
//
// Usage:
//
//	tracegen -profile europe -days 14 -o eu.trace
//	traceinfo -trace eu.trace -chunk-mb 2
//
//	# columnar trace directories are detected automatically and
//	# analyzed by streaming (two cursor passes, flat memory):
//	traceinfo -trace eu.tracedir
package main

import (
	"flag"
	"fmt"
	"os"

	"videocdn/internal/analyze"
	"videocdn/internal/trace"
)

func main() {
	tracePath := flag.String("trace", "", "text trace file or columnar trace directory")
	chunkMB := flag.Float64("chunk-mb", 2, "chunk size in MB (for chunk-level stats)")
	flag.Parse()

	if *tracePath == "" {
		fatal(fmt.Errorf("-trace is required"))
	}
	src, err := trace.Open(*tracePath)
	if err != nil {
		fatal(err)
	}
	// Memory is bounded by per-video state, never by trace length (a
	// text file is already in memory).
	rep, err := analyze.AnalyzeSource(src, int64(*chunkMB*(1<<20)))
	if err != nil {
		fatal(err)
	}
	rep.Print(os.Stdout)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "traceinfo:", err)
	os.Exit(1)
}
