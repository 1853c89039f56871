// Command experiments regenerates the paper's tables and figures
// (Section 9) on the synthetic six-region workloads.
//
// Usage:
//
//	experiments -fig all                 # every figure at default scale
//	experiments -fig 4 -scale small      # one figure, test scale
//	experiments -fig 6,7 -alpha 1        # figure variants
//	experiments -fig ablations           # design-choice ablations
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"videocdn/internal/experiments"
)

// figNames are the -fig names, in the order the figures print.
var figNames = []string{
	"2", "3", "4", "5", "6", "7", "ablations",
	"prefetch", "baselines", "hierarchy", "constrained", "rounding", "sensitivity", "flash", "cdnwide",
}

// parseFigs reads -fig: a comma-separated list of exact figure names,
// where "all" names every figure.
func parseFigs(s string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, name := range strings.Split(s, ",") {
		switch {
		case name == "all":
			for _, n := range figNames {
				want[n] = true
			}
		case slices.Contains(figNames, name):
			want[name] = true
		default:
			return nil, fmt.Errorf("unknown figure %q: want all or a comma-separated list of %s", name, strings.Join(figNames, ", "))
		}
	}
	return want, nil
}

func main() {
	fig := flag.String("fig", "all", "figures to regenerate: all, or a comma-separated list of "+strings.Join(figNames, ","))
	scaleName := flag.String("scale", "default", "experiment scale: default or small")
	alpha := flag.Float64("alpha", 0, "override alpha_F2R where applicable (fig 6/7)")
	csvDir := flag.String("csv", "", "also write each figure's raw data as CSV into this directory")
	flag.Parse()

	want, err := parseFigs(*fig)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-fig: %v\n", err)
		os.Exit(2)
	}

	writeCSV := func(name string, dump func(io.Writer) error) {
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "csv: %v\n", err)
			os.Exit(1)
		}
		path := filepath.Join(*csvDir, name)
		f, err := os.Create(path)
		if err == nil {
			if err = dump(f); err == nil {
				err = f.Close()
			} else {
				f.Close()
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "csv %s: %v\n", path, err)
			os.Exit(1)
		}
		fmt.Printf("[wrote %s]\n", path)
	}

	var sc experiments.Scale
	switch *scaleName {
	case "default":
		sc = experiments.DefaultScale()
	case "small":
		sc = experiments.SmallScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want default or small)\n", *scaleName)
		os.Exit(2)
	}

	run := func(name string, f func() error) {
		t0 := time.Now()
		fmt.Printf("==== %s (scale=%s) ====\n", name, sc.Name)
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", name, err)
			os.Exit(1)
		}
		// The timing goes to stderr, so stdout depends on the code alone.
		fmt.Fprintf(os.Stderr, "[%s in %v]\n", name, time.Since(t0).Round(time.Millisecond))
		fmt.Println()
	}

	// show runs the figure called name, if -fig selected it, under the
	// heading title, prints it and writes its CSV when it has one.
	type printer interface{ Print(io.Writer) }
	show := func(name, title string, f func() (printer, error)) {
		if !want[name] {
			return
		}
		run(title, func() error {
			r, err := f()
			if err != nil {
				return err
			}
			r.Print(os.Stdout)
			if c, ok := r.(interface{ CSV(io.Writer) error }); ok {
				writeCSV("fig"+name+".csv", c.CSV)
			}
			return nil
		})
	}

	show("2", "Figure 2", func() (printer, error) { return experiments.Fig2(sc, nil, nil) })
	show("3", "Figure 3", func() (printer, error) { return experiments.Fig3(sc) })
	if want["4"] || want["5"] {
		var sweep *experiments.AlphaSweepResult
		run("Alpha sweep (Figures 4 and 5)", func() error {
			var err error
			sweep, err = experiments.AlphaSweep(sc, nil)
			return err
		})
		if want["4"] {
			sweep.PrintFig4(os.Stdout)
			fmt.Println()
		}
		if want["5"] {
			sweep.PrintFig5(os.Stdout)
			fmt.Println()
		}
		writeCSV("fig45.csv", sweep.CSV)
	}
	show("6", "Figure 6", func() (printer, error) { return experiments.Fig6(sc, *alpha, nil) })
	show("7", "Figure 7", func() (printer, error) { return experiments.Fig7(sc, *alpha) })
	show("ablations", "Ablations", func() (printer, error) { return experiments.Ablations(sc) })
	show("prefetch", "Proactive caching (extension)", func() (printer, error) { return experiments.Prefetch(sc) })
	show("baselines", "Replacement-only baselines (extension)", func() (printer, error) { return experiments.Baselines(sc) })
	show("hierarchy", "Two-tier hierarchy (extension)", func() (printer, error) { return experiments.Hierarchy(sc) })
	show("constrained", "Ingress control (extension)", func() (printer, error) { return experiments.Constrained(sc) })
	show("rounding", "Optimum bracketing (extension)", func() (printer, error) { return experiments.Rounding(sc) })
	show("sensitivity", "Sensitivity sweeps (extension)", func() (printer, error) { return experiments.Sensitivity(sc) })
	show("flash", "Flash crowd (extension)", func() (printer, error) { return experiments.Flash(sc) })
	show("cdnwide", "CDN-wide fan-in (extension)", func() (printer, error) { return experiments.CDNWide(sc) })
}
