// Command experiments regenerates the paper's tables and figures
// (Section 9) on the synthetic six-region workloads.
//
// Usage:
//
//	experiments -fig all                 # every figure at default scale
//	experiments -fig 4 -scale small      # one figure, test scale
//	experiments -fig 6 -alpha 1          # figure variants
//	experiments -fig ablations           # design-choice ablations
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"videocdn/internal/experiments"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 2,3,4,5,6,7,ablations,prefetch,baselines,policies,hierarchy,cdnwide,constrained,sensitivity,flash,rounding,all")
	scaleName := flag.String("scale", "default", "experiment scale: default or small")
	alpha := flag.Float64("alpha", 0, "override alpha_F2R where applicable (fig 6/7)")
	csvDir := flag.String("csv", "", "also write each figure's raw data as CSV into this directory")
	flag.Parse()

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

	want := func(k string) bool {
		return *fig == "all" || *fig == k || strings.Contains(*fig, k)
	}

	var sweep *experiments.AlphaSweepResult
	if want("2") {
		run("Figure 2", func() error {
			r, err := experiments.Fig2(sc, nil, nil)
			if err != nil {
				return err
			}
			r.Print(os.Stdout)
			writeCSV("fig2.csv", r.CSV)
			return nil
		})
	}
	if want("3") {
		run("Figure 3", func() error {
			r, err := experiments.Fig3(sc)
			if err != nil {
				return err
			}
			r.Print(os.Stdout)
			writeCSV("fig3.csv", r.CSV)
			return nil
		})
	}
	if want("4") || want("5") {
		run("Alpha sweep (Figures 4 and 5)", func() error {
			var err error
			sweep, err = experiments.AlphaSweep(sc, nil)
			return err
		})
	}
	if want("4") && sweep != nil {
		sweep.PrintFig4(os.Stdout)
		fmt.Println()
	}
	if want("5") && sweep != nil {
		sweep.PrintFig5(os.Stdout)
		fmt.Println()
	}
	if (want("4") || want("5")) && sweep != nil {
		writeCSV("fig45.csv", sweep.CSV)
	}
	if want("6") {
		run("Figure 6", func() error {
			r, err := experiments.Fig6(sc, *alpha, nil)
			if err != nil {
				return err
			}
			r.Print(os.Stdout)
			writeCSV("fig6.csv", r.CSV)
			return nil
		})
	}
	if want("7") {
		run("Figure 7", func() error {
			r, err := experiments.Fig7(sc, *alpha)
			if err != nil {
				return err
			}
			r.Print(os.Stdout)
			writeCSV("fig7.csv", r.CSV)
			return nil
		})
	}
	if want("ablations") || *fig == "all" {
		run("Ablations", func() error {
			r, err := experiments.Ablations(sc)
			if err != nil {
				return err
			}
			r.Print(os.Stdout)
			return nil
		})
	}
	if want("prefetch") || *fig == "all" {
		run("Proactive caching (extension)", func() error {
			r, err := experiments.Prefetch(sc)
			if err != nil {
				return err
			}
			r.Print(os.Stdout)
			return nil
		})
	}
	if want("baselines") || *fig == "all" {
		run("Replacement-only baselines (extension)", func() error {
			r, err := experiments.Baselines(sc)
			if err != nil {
				return err
			}
			r.Print(os.Stdout)
			return nil
		})
	}
	if want("policies") || *fig == "all" {
		run("Policy registry head-to-head (extension)", func() error {
			r, err := experiments.Policies(sc)
			if err != nil {
				return err
			}
			r.Print(os.Stdout)
			writeCSV("policies.csv", r.CSV)
			return nil
		})
	}
	if want("hierarchy") || *fig == "all" {
		run("Two-tier hierarchy (extension)", func() error {
			r, err := experiments.Hierarchy(sc)
			if err != nil {
				return err
			}
			r.Print(os.Stdout)
			return nil
		})
	}
	if want("constrained") || *fig == "all" {
		run("Ingress control (extension)", func() error {
			r, err := experiments.Constrained(sc)
			if err != nil {
				return err
			}
			r.Print(os.Stdout)
			return nil
		})
	}
	if want("rounding") || *fig == "all" {
		run("Optimum bracketing (extension)", func() error {
			r, err := experiments.Rounding(sc)
			if err != nil {
				return err
			}
			r.Print(os.Stdout)
			return nil
		})
	}
	if want("sensitivity") || *fig == "all" {
		run("Sensitivity sweeps (extension)", func() error {
			r, err := experiments.Sensitivity(sc)
			if err != nil {
				return err
			}
			r.Print(os.Stdout)
			return nil
		})
	}
	if want("flash") || *fig == "all" {
		run("Flash crowd (extension)", func() error {
			r, err := experiments.Flash(sc)
			if err != nil {
				return err
			}
			r.Print(os.Stdout)
			return nil
		})
	}
	if want("cdnwide") || *fig == "all" {
		run("CDN-wide fan-in (extension)", func() error {
			r, err := experiments.CDNWide(sc)
			if err != nil {
				return err
			}
			r.Print(os.Stdout)
			return nil
		})
	}
}
