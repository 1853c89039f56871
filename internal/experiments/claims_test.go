package experiments

import (
	"fmt"
	"sync"
	"testing"

	"videocdn/internal/sim"
)

// The runs the claims are read from, each made once per test binary
// and shared with the figure smoke tests: tinyScale, except the alpha
// sweep and one Figure 7 run at SmallScale (see TestPaperClaims).
var (
	claimAlphas = []float64{1, 2, 4}
	claimDisks  = []float64{0.5, 1, 2}

	smallSweep = sync.OnceValues(func() (*AlphaSweepResult, error) { return AlphaSweep(SmallScale(), claimAlphas) })
	tinyFig6   = sync.OnceValues(func() (*Fig6Result, error) { return Fig6(tinyScale(), 2, claimDisks) })
	tinyFig7   = sync.OnceValues(func() (*Fig7Result, error) { return Fig7(tinyScale(), 2) })
	smallFig7  = sync.OnceValues(func() (*Fig7Result, error) { return Fig7(SmallScale(), 2) })
	tinyFig2   = sync.OnceValues(func() (*Fig2Result, error) {
		return Fig2(tinyScale(), []float64{1, 2}, []string{"asia", "europe"})
	})
)

// get returns a shared run's result, failing the test on its error.
func get[T any](t *testing.T, run func() (T, error)) T {
	t.Helper()
	v, err := run()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// atMost is one inequality of a claim: lo <= hi, or lo < hi when
// strict.
type atMost struct {
	what   string
	lo, hi float64
	strict bool
}

func (a atMost) holds() bool {
	if a.strict {
		return a.lo < a.hi
	}
	return a.lo <= a.hi
}

// TestPaperClaims asserts the paper's claims about its figures as
// inequalities over one seed of the tiny-scale runs. Each row names the
// figures it comes from; no row has slack.
//
// Two kinds of row read SmallScale runs instead. The europe alpha
// sweep (Figs. 4-5): at tinyScale Cafe leads xLRU at alpha 1 by 0.0006
// only, too little for Eq. 6 with a wrong floor to fail it. Psychic at
// least Cafe: at tinyScale Cafe passes Psychic on four of the six
// servers at alpha 2. That row also leaves out alpha 4, where Cafe
// passes Psychic at the default scale too (EXPERIMENTS.md, Figure 4).
func TestPaperClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs")
	}
	eff := func(m map[string]*sim.Result, algo string) float64 { return m[algo].Efficiency() }
	rows := []struct {
		section, claim string
		check          func(t *testing.T) []atMost
	}{
		{"Fig2", "psychic within the LP bound", func(t *testing.T) (out []atMost) {
			for _, r := range get(t, tinyFig2).Rows {
				out = append(out, atMost{fmt.Sprintf("%s alpha=%g: psychic <= bound", r.Server, r.Alpha), r.Psychic, r.Bound, false})
			}
			return out
		}},
		{"Figs4-5", "cafe at least xlru at alpha 1, 2, 4", func(t *testing.T) (out []atMost) {
			res := get(t, smallSweep)
			for _, a := range claimAlphas {
				m := res.Results[a]
				out = append(out, atMost{fmt.Sprintf("alpha=%g: xlru <= cafe", a), eff(m, AlgoXLRU), eff(m, AlgoCafe), false})
			}
			return out
		}},
		{"Fig5", "cafe ingresses less than xlru at alpha 2", func(t *testing.T) []atMost {
			m := get(t, smallSweep).Results[2]
			return []atMost{{"alpha=2: cafe ingress < xlru ingress", m[AlgoCafe].IngressRatio(), m[AlgoXLRU].IngressRatio(), true}}
		}},
		{"Fig6", "every online policy non-decreasing in disk size", func(t *testing.T) (out []atMost) {
			res := get(t, tinyFig6)
			for _, algo := range OnlineAlgos {
				for i := 1; i < len(res.Disks); i++ {
					lo, hi := res.Disks[i-1], res.Disks[i]
					out = append(out, atMost{fmt.Sprintf("%s: disk %d <= disk %d", algo, lo, hi),
						eff(res.Results[lo], algo), eff(res.Results[hi], algo), false})
				}
			}
			return out
		}},
		{"Fig7", "cafe at least xlru on all six servers at alpha 2", func(t *testing.T) (out []atMost) {
			res := get(t, tinyFig7)
			for _, s := range res.Servers {
				m := res.Results[s]
				out = append(out, atMost{s + ": xlru <= cafe", eff(m, AlgoXLRU), eff(m, AlgoCafe), false})
			}
			return out
		}},
		{"Figs4-7", "psychic at least cafe", func(t *testing.T) (out []atMost) {
			for _, a := range []float64{1, 2} {
				m := get(t, smallSweep).Results[a]
				out = append(out, atMost{fmt.Sprintf("europe alpha=%g: cafe <= psychic", a), eff(m, AlgoCafe), eff(m, AlgoPsychic), false})
			}
			res := get(t, smallFig7)
			for _, s := range res.Servers {
				m := res.Results[s]
				out = append(out, atMost{s + " alpha=2: cafe <= psychic", eff(m, AlgoCafe), eff(m, AlgoPsychic), false})
			}
			return out
		}},
	}
	for _, row := range rows {
		t.Run(row.section+"/"+row.claim, func(t *testing.T) {
			for _, a := range row.check(t) {
				if !a.holds() {
					t.Errorf("%s: %.4f vs %.4f", a.what, a.lo, a.hi)
				} else {
					t.Logf("%s: %.4f vs %.4f", a.what, a.lo, a.hi)
				}
			}
		})
	}
}
