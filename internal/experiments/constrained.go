package experiments

import (
	"fmt"
	"io"
	"strconv"

	"videocdn/internal/core"
	"videocdn/internal/cost"
	"videocdn/internal/sim"
	"videocdn/internal/trace"
	"videocdn/internal/writelimit"
)

// ConstrainedRow is one ingress-control strategy's outcome.
type ConstrainedRow struct {
	Name       string
	Eff        float64
	Ingress    float64
	Redirect   float64
	ReadLoss   float64 // fill chunks × ReadCostPerWrite ÷ requested chunks
	FinalAlpha float64 // for the controller row
	Denied     int64   // for the budget row
}

// ConstrainedResult compares three ways of operating a disk/uplink-
// constrained server (Section 2's scenario):
//
//   - static alpha=2 (the paper's recommended default for constrained
//     servers),
//   - a hard per-hour write budget at alpha=1 (operational cap), and
//   - the Section-10 control loop steering alpha toward a target
//     ingress ratio.
type ConstrainedResult struct {
	Server string
	Target float64
	Rows   []ConstrainedRow
}

// Constrained runs the ingress-control comparison on the European
// trace.
func Constrained(sc Scale) (*ConstrainedResult, error) {
	const server = "europe"
	reqs, err := TraceFor(server, sc)
	if err != nil {
		return nil, err
	}
	cfg := coreConfig(sc)
	res := &ConstrainedResult{Server: server}

	// Derive a target from what static alpha=2 achieves, so all three
	// strategies chase a comparable operating point.
	ref, err := runOne(AlgoCafe, cfg, 2, reqs, simOptions())
	if err != nil {
		return nil, err
	}
	target := ref.IngressRatio()
	if target <= 0 {
		target = 0.05
	}
	res.Target = target

	// Score every strategy under the same cost model — the server IS
	// ingress-constrained, so alpha=2 is its true preference even when
	// a strategy makes decisions with a different internal alpha.
	scoreModel, err := cost.NewModel(2)
	if err != nil {
		return nil, err
	}
	row := func(name string, r *sim.Result, alpha float64, denied int64) ConstrainedRow {
		readLoss := 0.0
		if r.Steady.Requested > 0 {
			readLoss = writelimit.ReadCostPerWrite * float64(r.Steady.Filled) / float64(r.Steady.Requested)
		}
		return ConstrainedRow{
			Name: name, Eff: r.Steady.Efficiency(scoreModel), Ingress: r.IngressRatio(),
			Redirect: r.RedirectRatio(), ReadLoss: readLoss,
			FinalAlpha: alpha, Denied: denied,
		}
	}
	res.Rows = append(res.Rows, row("cafe alpha=2 (static)", ref, 2, 0))

	// Hard write budget at alpha=1.
	budgetPerHour := hourlyBudget(reqs, sc.ChunkSize, target)
	// The two constrained strategies decide at alpha=1 inside their
	// control range.
	model1, err := cost.NewModel(1)
	if err != nil {
		return nil, err
	}
	replay := func(spec string) (*sim.Result, core.Cache, error) {
		c, err := newCache(spec, cfg, 1, reqs)
		if err != nil {
			return nil, nil, err
		}
		r, err := sim.Replay(c, trace.Slice(reqs), model1, simOptions())
		return r, c, err
	}
	bres, bcache, err := replay(budgetSpec(budgetPerHour))
	if err != nil {
		return nil, err
	}
	denied := bcache.(interface{ Denied() int64 }).Denied()
	res.Rows = append(res.Rows, row(fmt.Sprintf("cafe alpha=1 + %d-chunk/h budget", budgetPerHour), bres, 1, denied))

	// Control loop: alpha in [1,4] chasing the target ingress.
	cres, ctl, err := replay("alphactl:inner=cafe,min_alpha=1,max_alpha=4,window=3600,target_ingress=" +
		strconv.FormatFloat(target, 'g', -1, 64))
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, row("cafe + alpha control loop", cres, ctl.(interface{ Alpha() float64 }).Alpha(), 0))
	return res, nil
}

// hourlyBudget is the budget row's write budget in chunks per hour:
// the target ingress ratio of reqs' mean requested chunks per hour,
// at least one.
func hourlyBudget(reqs []trace.Request, chunkSize int64, target float64) int {
	reqChunksPerHour := 0.0
	span := float64(reqs[len(reqs)-1].Time-reqs[0].Time) / 3600
	if span > 0 {
		var totalChunks int64
		for _, r := range reqs {
			totalChunks += int64(r.Range().Count(chunkSize))
		}
		reqChunksPerHour = float64(totalChunks) / span
	}
	return max(int(target*reqChunksPerHour), 1)
}

// budgetSpec is the budget row's cache: Cafe under a write budget of
// perHour chunks per hour.
func budgetSpec(perHour int) string {
	return fmt.Sprintf("writelimit:inner=cafe,per_window=%d,window=3600", perHour)
}

// Print renders the ingress-control comparison.
func (r *ConstrainedResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Ingress control for constrained servers (%s; target ingress %s)\n",
		r.Server, pct(r.Target))
	fmt.Fprintf(w, "%-34s %8s %9s %9s %10s %8s %8s\n",
		"strategy", "eff", "ingress", "redirect", "read-loss", "alpha", "denied")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-34s %8s %9s %9s %10s %8.2f %8d\n",
			row.Name, pct(row.Eff), pct(row.Ingress), pct(row.Redirect),
			pct(row.ReadLoss), row.FinalAlpha, row.Denied)
	}
	fmt.Fprintln(w, "read-loss: forgone read capacity from fill writes (1.25 reads/write, Section 2),")
	fmt.Fprintln(w, "as a fraction of requested volume. All three strategies hold ingress near the")
	fmt.Fprintln(w, "target; the cost model (static alpha) does it with the best efficiency, the")
	fmt.Fprintln(w, "budget gives a hard guarantee, and the control loop needs no manual alpha.")
}
