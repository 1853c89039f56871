// Command checker soak-tests the HTTP edge server against the
// reference model (internal/oracle) far beyond CI budgets: it runs
// seeded scenario checks — every response and every counter diffed
// against the model, store↔cache coherence verified at each quiescent
// point — over one configuration (on a 128-chunk disk) or the whole
// matrix, for a fixed number of seeds or until a time budget runs out.
//
// Output discipline: result lines on stdout are a pure function of the
// flags (two identical invocations produce byte-identical stdout, which
// is itself a determinism check); progress and timing go to stderr.
//
// On a violation the process exits 1 after printing the failing seed,
// op index and a minimal reproduction command — operations are a pure
// function of the seed, so replaying with -ops <failing op>+1 is the
// shortest run that still fails. A matrix cell on the 16-chunk disk
// is reproduced by the matrix itself.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"videocdn/internal/oracle"
	"videocdn/internal/policy"
)

func main() {
	var (
		seed     = flag.Int64("seed", 1, "first seed; successive passes increment it")
		ops      = flag.Int("ops", 200000, "operations per check run")
		duration = flag.Duration("duration", 0, "keep starting new seeds until this much time has passed (0: one pass)")
		algo     = flag.String("algo", "cafe", "cache policy spec, name or name:k=v,... (e.g. lruq:q=8); names: "+strings.Join(policy.Names(), ", "))
		storeK   = flag.String("store", "slab", "byte store: mem, fs or slab")
		hotKB    = flag.Int64("hot-kb", 0, "RAM hot tier budget in KB (0 disables the tier)")
		matrix   = flag.Bool("matrix", false, "run the full {cafe,xlru}×{mem,fs,slab}×{16,128-chunk disk}×{hot 0,32 KB} matrix per seed instead of one configuration")
	)
	flag.Parse()

	type combo struct {
		algo, store string
		disk        int // chunks
		hotBytes    int64
	}
	combos := []combo{{*algo, *storeK, 128, *hotKB << 10}}
	if *matrix {
		combos = combos[:0]
		for _, a := range []string{"cafe", "xlru"} {
			for _, s := range []string{"mem", "fs", "slab"} {
				for _, disk := range []int{16, 128} {
					for _, hot := range []int64{0, 32 << 10} {
						combos = append(combos, combo{a, s, disk, hot})
					}
				}
			}
		}
	}

	start := time.Now()
	runs := 0
	for s := *seed; ; s++ {
		for _, c := range combos {
			dir, err := os.MkdirTemp("", "checker-*")
			if err != nil {
				fmt.Fprintln(os.Stderr, "checker:", err)
				os.Exit(2)
			}
			res, err := oracle.Check(oracle.CheckConfig{
				Algo: c.algo, StoreKind: c.store, DiskChunks: c.disk,
				HotBytes: c.hotBytes, Seed: s, Ops: *ops, Dir: dir,
				Progress: func(done, total int) {
					if done%20000 == 0 {
						fmt.Fprintf(os.Stderr, "... %s/%s/disk=%d/hot=%d seed=%d: %d/%d ops\n",
							c.algo, c.store, c.disk, c.hotBytes, s, done, total)
					}
				},
			})
			os.RemoveAll(dir)
			runs++
			if err != nil {
				fmt.Fprintln(os.Stderr, "VIOLATION:", err)
				repro := *ops
				if res != nil && res.FailedOp >= 0 {
					repro = res.FailedOp + 1
				}
				if c.disk != 128 {
					fmt.Fprintf(os.Stderr, "reproduce: go run ./cmd/checker -matrix -seed %d -ops %d\n", s, repro)
				} else {
					fmt.Fprintf(os.Stderr,
						"reproduce (minimal): go run ./cmd/checker -algo '%s' -store %s -hot-kb %d -seed %d -ops %d\n",
						c.algo, c.store, c.hotBytes>>10, s, repro)
				}
				os.Exit(1)
			}
			fmt.Printf("%s/%s/disk=%d/hot=%d seed=%d: %s\n", c.algo, c.store, c.disk, c.hotBytes, s, res)
		}
		if *duration == 0 || time.Since(start) >= *duration {
			break
		}
	}
	fmt.Fprintf(os.Stderr, "checker: %d runs, 0 violations, %s\n", runs, time.Since(start).Round(time.Millisecond))
}
