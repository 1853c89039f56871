package experiments

import (
	"fmt"
	"io"

	"videocdn/internal/sim"
)

// AblationRow is one design-choice variant's steady-state metrics.
type AblationRow struct {
	Name     string
	Eff      float64
	Ingress  float64
	Redirect float64
}

// AblationResult quantifies the design choices DESIGN.md calls out:
// Cafe's EWMA factor gamma, the future window T, chunk-level vs
// file-level tracking, the unseen-chunk estimator, and Psychic's
// future-list bound N. These go beyond the paper's own evaluation.
type AblationResult struct {
	Server string
	Alpha  float64
	Rows   []AblationRow
}

// Ablations runs every variant on the European trace at alpha=2.
func Ablations(sc Scale) (*AblationResult, error) {
	const server = "europe"
	const alpha = 2.0
	reqs, err := TraceFor(server, sc)
	if err != nil {
		return nil, err
	}
	// Each variant is a label and the registry spec that builds it.
	var variants [][2]string
	// Cafe baseline and gamma sensitivity (Eq. 8).
	for _, gamma := range []float64{0.05, 0.25, 0.5, 0.9} {
		variants = append(variants, [2]string{fmt.Sprintf("cafe gamma=%.2f", gamma), fmt.Sprintf("cafe:gamma=%v", gamma)})
	}
	// Future window T scaling (paper: T = cache age is best).
	for _, ws := range []float64{0.25, 4} {
		variants = append(variants, [2]string{fmt.Sprintf("cafe window=%.2gx age", ws), fmt.Sprintf("cafe:window_scale=%v", ws)})
	}
	// Chunk-awareness ablations.
	variants = append(variants,
		[2]string{"cafe file-level IATs", "cafe:file_level=true"},
		[2]string{"cafe no video estimate", "cafe:no_video_estimate=true"})
	// Psychic future-list bound (paper: N=10 suffices).
	for _, n := range []int{1, 2, 10, 50} {
		variants = append(variants, [2]string{fmt.Sprintf("psychic N=%d", n), fmt.Sprintf("psychic:n=%d", n)})
	}

	res := &AblationResult{Server: server, Alpha: alpha}
	for _, v := range variants {
		r, err := runOne(v[1], coreConfig(sc), alpha, reqs, sim.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v[0], err)
		}
		res.Rows = append(res.Rows, AblationRow{
			Name: v[0], Eff: r.Efficiency(), Ingress: r.IngressRatio(), Redirect: r.RedirectRatio(),
		})
	}
	return res, nil
}

// Print renders the ablation table.
func (r *AblationResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Ablations (%s server, alpha=%.2g)\n", r.Server, r.Alpha)
	fmt.Fprintf(w, "%-26s %10s %10s %10s\n", "variant", "eff", "ingress", "redirect")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-26s %10s %10s %10s\n", row.Name, pct(row.Eff), pct(row.Ingress), pct(row.Redirect))
	}
}
