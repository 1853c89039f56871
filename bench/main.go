// Command bench is the repository's one benchmark: four named
// workloads, end-to-end metrics measured from outside the program
// (cdnserver origin and edge run as child processes, driven over
// loopback), and a per-layer pass (-trace 1) that wraps each layer's
// public boundary in process and writes spans to bench/out. See
// README.md here and BENCHMARK.json at the repository root.
//
//	bash bench/run.sh -workload hit-small -seed 1
//	bash bench/run.sh -workload miss-churn -seed 1 -trace 1
//	bash bench/run.sh -agree
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
}

// result is one run's outcome. The last line of standard output is its
// JSON form; everything before it is for people.
type result struct {
	attempted, failed int
	metrics           []metric
	// problems lists what made the run incorrect besides failed
	// operations: a broken identity, an invalid open-loop phase, a
	// budget that does not close.
	problems []string
	notes    []string
}

func (r *result) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

// addPercentile adds the p-th percentile of sorted, and a problem when
// the sample is too small to have one.
func (r *result) addPercentile(name, unit string, sorted []float64, p float64) {
	v, err := percentile(sorted, p)
	if err != nil {
		r.problems = append(r.problems, name+": "+err.Error())
	}
	r.add(name, unit, v)
}

func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

func (r *result) value(name string) (float64, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m.value, true
		}
	}
	return 0, false
}

func (r *result) print(w *os.File) error {
	for _, n := range r.notes {
		fmt.Fprintln(w, "#", n)
	}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-32s %16.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(w, "%-32s %16d\n%-32s %16d\n", "ops", r.attempted, "failed_ops", r.failed)
	for _, p := range r.problems {
		fmt.Fprintln(w, "PROBLEM:", p)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, map[string]jm{}}
	for _, m := range r.metrics {
		out.Metrics[m.name] = jm{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// findRoot returns the checkout root: the directory holding
// cmd/cdnserver, which is the working directory under run.sh and its
// parent under `go run .` inside bench/.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "cdnserver", "main.go")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("cmd/cdnserver not found from the working directory: run from the checkout root or from bench/")
}

// stamp describes the machine and the code a result comes from.
func stamp(e *env, s *suite, build time.Duration) []string {
	head := "not a git checkout"
	if out, err := exec.Command("git", "-C", e.root, "rev-parse", "HEAD").Output(); err == nil {
		head = strings.TrimSpace(string(out))
	}
	return []string{
		fmt.Sprintf("nproc=%d generator_GOMAXPROCS=%d child_GOMAXPROCS=%d (children inherit the default) connections=%d %s commit=%s",
			runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.NumCPU(), e.workers, runtime.Version(), head),
		fmt.Sprintf("%s; go build ./cmd/cdnserver took %.2fs, no part of setup_s", s.Environment, build.Seconds()),
	}
}

func main() {
	name := flag.String("workload", "", "workload to run (see workloads.json)")
	seed := flag.Int64("seed", 0, "seed of the generated inputs (0: the suite's default)")
	seconds := flag.Int("seconds", 0, "measured seconds per run (0: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1: per-layer pass (child phases for the server-only counters, then the in-process traced pass); 0: end-to-end metrics")
	agree := flag.Bool("agree", false, "run every workload twice (A/A) and compare against the bounds in BENCHMARK.json")
	smoke := flag.Bool("smoke", false, "run every workload at toy size, both passes")
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *trace, *agree, *smoke); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed int64, seconds, trace int, agree, smoke bool) error {
	s, err := loadSuite()
	if err != nil {
		return err
	}
	if seed == 0 {
		seed = s.SeedDefault
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	b, err := loadBenchFile(root)
	if err != nil {
		return err
	}
	if seconds == 0 {
		seconds = b.RunSeconds
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	// Ctrl-C and SIGTERM must not leave children behind: a run stops
	// its own stack on every return path, a signal stops whatever is
	// still registered, and Pdeathsig covers every other death.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAllStacks()
		os.Exit(130)
	}()

	bin, build, err := buildServer(root)
	if err != nil {
		return err
	}
	e := &env{root: root, serverBin: bin, workers: min(runtime.NumCPU(), s.MaxConnections)}
	notes := stamp(e, s, build)

	switch {
	case agree:
		return runAgree(e, s, b, seed, seconds)
	case smoke:
		return runSmoke(e, s, b, seed, os.Stdout)
	}
	w, err := s.find(name)
	if err != nil {
		return err
	}
	res, err := runOne(e, &w, seed, seconds, trace == 1)
	if err != nil {
		return err
	}
	if err := b.conform(res, trace == 1); err != nil {
		return err
	}
	res.notes = append(notes, res.notes...)
	return res.print(os.Stdout)
}

// runOne runs one workload once, end to end or traced.
func runOne(e *env, w *workload, seed int64, seconds int, traced bool) (*result, error) {
	window := time.Duration(seconds) * time.Second
	switch {
	case w.Kind == "replay" && traced:
		return replayLayers(e, w, seed, window)
	case w.Kind == "replay":
		return replayEndToEnd(e, w, seed, window)
	case traced:
		return httpLayers(e, w, seed, window)
	default:
		return httpEndToEnd(e, w, seed, window)
	}
}
