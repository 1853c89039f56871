// Command tracegen synthesizes video-CDN request traces for the six
// world-region server profiles (the substitute for the paper's
// anonymized production logs).
//
// Usage:
//
//	tracegen -profile europe -days 14 -o europe.trace   # text, one request per line
//	tracegen -list                                      # show profiles
//	tracegen -profile europe -scale 0.1 -o small.trace  # scaled volume
//
// For month-scale (100M+) traces, generate a sharded columnar trace
// directory instead of a text file — generation streams to disk at
// flat memory and, with -gen-workers > 1, runs in parallel:
//
//	tracegen -profile europe -days 30 -dir europe.tracedir \
//	         -trace-shards 8 -gen-workers 4
package main

import (
	"flag"
	"fmt"
	"os"

	"videocdn/internal/trace"
	"videocdn/internal/workload"
)

func main() {
	profile := flag.String("profile", "europe", "server profile name")
	days := flag.Int("days", 14, "days of trace to generate")
	out := flag.String("o", "", "output text file (default stdout)")
	scale := flag.Float64("scale", 1, "volume scale factor (requests, catalog, churn)")
	seed := flag.Int64("seed", 0, "override the profile's seed (0 = keep)")
	list := flag.Bool("list", false, "list available profiles and exit")
	dir := flag.String("dir", "", "write a columnar trace directory instead of a text file")
	traceShards := flag.Int("trace-shards", 1, "shard fan-out of the trace directory (power of two; with -dir)")
	genWorkers := flag.Int("gen-workers", 1, "parallel generation parts (with -dir)")
	flag.Parse()

	if *list {
		fmt.Printf("%-14s %10s %9s %7s %6s\n", "name", "reqs/day", "catalog", "churn", "zipf")
		for _, p := range workload.Profiles() {
			fmt.Printf("%-14s %10d %9d %7d %6.2f\n",
				p.Name, p.RequestsPerDay, p.CatalogSize, p.NewVideosPerDay, p.ZipfExponent)
		}
		return
	}

	p, err := workload.ProfileByName(*profile)
	if err != nil {
		fatal(err)
	}
	if *scale != 1 {
		p.RequestsPerDay = int(float64(p.RequestsPerDay) * *scale)
		p.CatalogSize = int(float64(p.CatalogSize) * *scale)
		p.NewVideosPerDay = int(float64(p.NewVideosPerDay) * *scale)
	}
	if *seed != 0 {
		p.Seed = *seed
	}
	if *dir != "" {
		st, err := workload.GenerateDir(p, *days, *dir, workload.DirGenOptions{
			Shards:  *traceShards,
			Workers: *genWorkers,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d requests (%.1f GB requested over %d days) to %s (%d shards, %d parts)\n",
			st.Requests, float64(st.TotalBytes)/(1<<30), *days, *dir, *traceShards, *genWorkers)
		return
	}

	g, err := workload.NewGenerator(p)
	if err != nil {
		fatal(err)
	}

	f := os.Stdout
	if *out != "" {
		f, err = os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
	}
	w := trace.NewTextWriter(f)
	// Stream straight to the writer — month-scale traces never need to
	// fit in memory.
	count := 0
	var totalBytes int64
	if err := g.GenerateFunc(*days, func(r trace.Request) error {
		count++
		totalBytes += r.Bytes()
		return w.Write(r)
	}); err != nil {
		fatal(err)
	}
	if err := w.Flush(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %d requests (%.1f GB requested over %d days)\n",
		count, float64(totalBytes)/(1<<30), *days)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
