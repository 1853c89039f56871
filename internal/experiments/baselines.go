package experiments

import (
	"fmt"
	"io"

	"videocdn/internal/sim"
)

// BaselinesResult contrasts classic replacement-only caches (always-
// fill LRU, GDSP) with the paper's admission-aware algorithms — the
// quantified version of Section 3's argument that "earlier works
// address the classic problem of cache replacement, whereas in our
// case it is about deciding between cache replacement and
// redirection".
type BaselinesResult struct {
	Server string
	Alphas []float64
	// Results[alpha][algo].
	Results map[float64]map[string]*sim.Result
}

// baselineAlgos is the comparison set, replacement-only first (LRU,
// LRU-2, LRU(q), GDSP, Belady answer only "what to evict"; admit(LRU),
// xLRU, Cafe, Psychic also answer "fill or redirect").
var baselineAlgos = []string{AlgoLRU, AlgoLRUK, AlgoLRUQ, AlgoGDSP, AlgoBelady, AlgoAdmit, AlgoXLRU, AlgoCafe, AlgoPsychic}

// Baselines runs the comparison on the European trace.
func Baselines(sc Scale) (*BaselinesResult, error) {
	const server = "europe"
	reqs, err := TraceFor(server, sc)
	if err != nil {
		return nil, err
	}
	cfg := coreConfig(sc)
	res := &BaselinesResult{
		Server:  server,
		Alphas:  []float64{1, 2},
		Results: map[float64]map[string]*sim.Result{},
	}
	for _, alpha := range res.Alphas {
		all, err := runMany(baselineAlgos, cfg, alpha, reqs, simOptions())
		if err != nil {
			return nil, err
		}
		res.Results[alpha] = all
	}
	return res, nil
}

// Print renders the baseline table.
func (r *BaselinesResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Replacement-only baselines vs admission-aware caches (%s server)\n", r.Server)
	fmt.Fprintf(w, "%-9s", "algo")
	for _, alpha := range r.Alphas {
		fmt.Fprintf(w, " | alpha=%-3.2g eff   ing    red  ", alpha)
	}
	fmt.Fprintln(w)
	for _, algo := range baselineAlgos {
		fmt.Fprintf(w, "%-9s", algo)
		for _, alpha := range r.Alphas {
			res := r.Results[alpha][algo]
			fmt.Fprintf(w, " | %9s %s %s", pct(res.Efficiency()), pct(res.IngressRatio()), pct(res.RedirectRatio()))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "\nGDSP and even offline-optimal Belady improve on plain LRU replacement, but as")
	fmt.Fprintln(w, "always-fill caches they cannot trade ingress for redirects — the admission")
	fmt.Fprintln(w, "decision, not replacement, is where the paper's gain lives.")
}
