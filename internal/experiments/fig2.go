package experiments

import (
	"fmt"
	"io"

	"videocdn/internal/core"
	"videocdn/internal/cost"
	"videocdn/internal/lp"
	"videocdn/internal/optimal"
	"videocdn/internal/sim"
	"videocdn/internal/trace"
)

// Fig2Row is one (server, alpha) comparison of Psychic against the
// LP-relaxed Optimal bound.
type Fig2Row struct {
	Server  string
	Alpha   float64
	Psychic float64 // Psychic's efficiency on the down-sampled trace
	Bound   float64 // LP-relaxation upper bound on any algorithm
	Delta   float64 // Bound - Psychic (Figure 2b's quantity)
	// Instance size diagnostics.
	Requests, Chunks, DiskChunks, LPRows, LPIters int
}

// Fig2Result reproduces Figure 2: per-server efficiencies (2a) and the
// avg/min/max delta between the bound and Psychic (2b).
type Fig2Result struct {
	Rows   []Fig2Row
	Alphas []float64
}

// Fig2 runs the limited-scale Optimal-vs-Psychic comparison (Section
// 9.1): two-day traces down-sampled to a uniform-by-rank file subset,
// file sizes capped, disk sized to hold Fig2DiskFrac of the requested
// chunks.
func Fig2(sc Scale, alphas []float64, servers []string) (*Fig2Result, error) {
	if len(alphas) == 0 {
		alphas = []float64{1, 2}
	}
	if len(servers) == 0 {
		servers = serverNames()
	}
	res := &Fig2Result{Alphas: alphas}
	for _, server := range servers {
		sample, err := fig2Sample(server, sc)
		if err != nil {
			return nil, err
		}
		unique := trace.UniqueChunks(sample, sc.ChunkSize)
		disk := int(sc.Fig2DiskFrac * float64(unique))
		if disk < 1 {
			disk = 1
		}
		for _, alpha := range alphas {
			row, err := fig2One(server, sample, sc, disk, alpha)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, *row)
		}
	}
	return res, nil
}

// fig2Sample prepares one server's down-sampled, chunk-aligned trace.
func fig2Sample(server string, sc Scale) ([]trace.Request, error) {
	full, err := TraceFor(server, Scale{
		Name: sc.Name, Factor: sc.Factor, Days: sc.Fig2Days,
		DiskChunks: sc.DiskChunks, ChunkSize: sc.ChunkSize,
	})
	if err != nil {
		return nil, err
	}
	sample := trace.SampleUniformByRank(full, sc.Fig2Files)
	sample = trace.CapSize(sample, sc.Fig2CapBytes)
	sample = trace.AlignToChunks(sample, sc.ChunkSize)
	sample = trace.Truncate(sample, sc.Fig2MaxReqs)
	if len(sample) == 0 {
		return nil, fmt.Errorf("experiments: fig2 sample for %s is empty", server)
	}
	return sample, nil
}

func fig2One(server string, sample []trace.Request, sc Scale, disk int, alpha float64) (*Fig2Row, error) {
	// Psychic over the whole sample (no history needed; no warmup
	// exclusion, as in the paper's Section 9.1).
	cfg := core.Config{ChunkSize: sc.ChunkSize, DiskChunks: disk}
	pc, err := newCache("psychic:strict=true", cfg, alpha, sample)
	if err != nil {
		return nil, err
	}
	model, err := cost.NewModel(alpha)
	if err != nil {
		return nil, err
	}
	pres, err := sim.Replay(pc, trace.Slice(sample), model, sim.Options{SteadyFraction: 0.001})
	if err != nil {
		return nil, err
	}
	psyEff := pres.Total.Efficiency(model)

	bound, err := optimal.SolveIntervalLP(optimal.Instance{
		Reqs: sample, ChunkSize: sc.ChunkSize, DiskChunks: disk, Alpha: alpha,
	}, optimal.SolveOptions{LP: lp.Options{MaxIterations: 200000}})
	if err != nil {
		return nil, err
	}
	if bound.Status != lp.Optimal {
		return nil, fmt.Errorf("experiments: fig2 LP for %s alpha=%v ended %v", server, alpha, bound.Status)
	}
	return &Fig2Row{
		Server:     server,
		Alpha:      alpha,
		Psychic:    psyEff,
		Bound:      bound.Efficiency,
		Delta:      bound.Efficiency - psyEff,
		Requests:   len(sample),
		Chunks:     trace.UniqueChunks(sample, sc.ChunkSize),
		DiskChunks: disk,
		LPRows:     bound.Rows,
		LPIters:    bound.Iterations,
	}, nil
}

// Print renders Figure 2(a) rows and the Figure 2(b) aggregate.
func (r *Fig2Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 2(a): Psychic vs LP-relaxed Optimal (down-sampled traces)")
	fmt.Fprintf(w, "%-14s %6s %10s %10s %8s  %s\n",
		"server", "alpha", "psychic", "optimalLP", "delta", "instance (T reqs / J chunks / disk)")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-14s %6.2g %10s %10s %8s  T=%d J=%d D=%d (LP %d rows, %d iters)\n",
			row.Server, row.Alpha, pct(row.Psychic), pct(row.Bound), pct(row.Delta),
			row.Requests, row.Chunks, row.DiskChunks, row.LPRows, row.LPIters)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Figure 2(b): delta efficiency (Optimal bound minus Psychic) across servers")
	for _, alpha := range r.Alphas {
		var ds []float64
		for _, row := range r.Rows {
			if row.Alpha == alpha {
				ds = append(ds, row.Delta)
			}
		}
		if len(ds) == 0 {
			continue
		}
		minD, maxD, sum := ds[0], ds[0], 0.0
		for _, d := range ds {
			if d < minD {
				minD = d
			}
			if d > maxD {
				maxD = d
			}
			sum += d
		}
		fmt.Fprintf(w, "alpha=%-4.2g avg=%s min=%s max=%s (n=%d servers)\n",
			alpha, pct(sum/float64(len(ds))), pct(minD), pct(maxD), len(ds))
	}
}

func serverNames() []string {
	return []string{"africa", "asia", "australia", "europe", "northamerica", "southamerica"}
}
