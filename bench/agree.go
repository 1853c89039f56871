package main

import (
	"fmt"
	"io"
)

// worsening is by how much b is worse than a, as a share of a, in the
// metric's own direction; negative when b is better.
func worsening(spec metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if spec.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runAgree is the A/A check: every workload runs twice on the same
// code, the set that goes first alternating from workload to workload,
// and any end-to-end metric on which the two sets differ by more than
// the bound BENCHMARK.json records is reported and fails the command.
// A bound that A/A runs cannot keep is no bound.
func runAgree(e *env, s *suite, b *benchFile, seed int64, seconds int) error {
	exceeded := 0
	for i, w := range s.Workloads {
		var sets [2]*result
		for _, set := range []int{i % 2, 1 - i%2} {
			res, err := runOne(e, &w, seed, seconds, false)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			if err := b.conform(res, false); err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			sets[set] = res
		}
		fmt.Printf("%s (set %c ran first)\n%-20s %14s %14s %9s %7s\n", w.Name, 'A'+rune(i%2), "metric", "A", "B", "diff", "bound")
		for k, spec := range b.EndToEnd {
			a, bv := sets[0].metrics[k].value, sets[1].metrics[k].value
			diff := max(worsening(spec, a, bv), worsening(spec, bv, a))
			flag := ""
			if diff > spec.Bound {
				flag = "  EXCEEDS"
				exceeded++
			}
			fmt.Printf("%-20s %14.6g %14.6g %8.2f%% %6.0f%%%s\n", spec.Name, a, bv, 100*diff, 100*spec.Bound, flag)
		}
		for set, res := range sets {
			fmt.Printf("set %c: ops %d, failed_ops %d\n", 'A'+rune(set), res.attempted, res.failed)
			for _, p := range res.problems {
				fmt.Println("PROBLEM:", p)
			}
			if !res.correct() {
				exceeded++
			}
		}
		fmt.Println()
	}
	if exceeded > 0 {
		return fmt.Errorf("A/A: %d metric x workload pairs outside their bounds or incorrect runs", exceeded)
	}
	fmt.Println("A/A: every end-to-end metric agrees within its bound on every workload, failed_ops = 0")
	return nil
}

// runSmoke runs every workload at toy size for one second, end to end
// and traced, and requires every metric of BENCHMARK.json to come out
// with no failed operation. Toy windows are too short for the tail
// percentiles, so a run's other problems are printed, not fatal.
func runSmoke(e *env, s *suite, b *benchFile, seed int64, out io.Writer) error {
	for _, full := range s.Workloads {
		w, err := full.toy()
		if err != nil {
			return err
		}
		for _, traced := range []bool{false, true} {
			res, err := runOne(e, &w, seed, 1, traced)
			if err != nil {
				return fmt.Errorf("%s (trace %v): %w", w.Name, traced, err)
			}
			if err := b.conform(res, traced); err != nil {
				return fmt.Errorf("%s (trace %v): %w", w.Name, traced, err)
			}
			if res.failed > 0 {
				return fmt.Errorf("%s (trace %v): %d failed operations: %v", w.Name, traced, res.failed, res.problems)
			}
			fmt.Fprintf(out, "%s trace=%v: %d ops\n", w.Name, traced, res.attempted)
			for _, m := range res.metrics {
				fmt.Fprintf(out, "  %-32s %14.6g %s\n", m.name, m.value, m.unit)
			}
			for _, p := range res.problems {
				fmt.Fprintln(out, "  note:", p)
			}
		}
	}
	return nil
}
