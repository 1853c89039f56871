// Package experiments regenerates every table and figure of the
// paper's evaluation (Section 9) on synthetic six-region workloads.
// Each FigN function returns a typed result with a Print method that
// emits the same rows/series the paper reports; cmd/experiments is the
// CLI front end and bench_test.go wraps each figure as a benchmark.
//
// Absolute numbers differ from the paper (our substrate is a synthetic
// workload, not the authors' production traces); the reproduced claims
// are the *shapes*: who wins, by roughly what factor, and where the
// crossovers fall. EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"fmt"

	"videocdn/internal/chunk"
	"videocdn/internal/trace"
	"videocdn/internal/workload"
)

// Scale selects the experiment size. The paper's servers see millions
// of requests against 1 TB disks; we shrink both together, holding the
// disk-to-working-set ratio in the same regime (cache age of days).
type Scale struct {
	Name string
	// Factor scales each profile's RequestsPerDay, CatalogSize and
	// NewVideosPerDay.
	Factor float64
	// Days of trace to generate. Steady-state metrics use the second
	// half.
	Days int
	// DiskChunks is the default disk size ("1 TB equivalent"); disk
	// sweeps multiply it.
	DiskChunks int
	// ChunkSize is K (2 MB everywhere, like the paper).
	ChunkSize int64
	// Fig2 down-sampling parameters (Section 9.1): days of trace,
	// number of files sampled uniformly across the popularity ranking,
	// per-file size cap, max requests fed to the LP, and the disk as a
	// fraction of unique requested chunks.
	Fig2Days     int
	Fig2Files    int
	Fig2CapBytes int64
	Fig2MaxReqs  int
	Fig2DiskFrac float64
}

// DefaultScale is the standard reproduction size: every figure runs in
// a couple of minutes on a laptop while showing the paper's shapes
// clearly. The "1 TB" operating point maps to a 16 GB disk.
func DefaultScale() Scale {
	return Scale{
		Name:         "default",
		Factor:       0.15,
		Days:         14,
		DiskChunks:   8192, // 16 GB of 2 MB chunks
		ChunkSize:    chunk.DefaultSize,
		Fig2Days:     2,
		Fig2Files:    100,
		Fig2CapBytes: 20 << 20,
		Fig2MaxReqs:  220,
		Fig2DiskFrac: 0.05,
	}
}

// SmallScale is for tests and benchmarks: seconds, same shapes with
// more noise.
func SmallScale() Scale {
	return Scale{
		Name:         "small",
		Factor:       0.06,
		Days:         8,
		DiskChunks:   2048, // 4 GB
		ChunkSize:    chunk.DefaultSize,
		Fig2Days:     2,
		Fig2Files:    40,
		Fig2CapBytes: 12 << 20,
		Fig2MaxReqs:  120,
		Fig2DiskFrac: 0.05,
	}
}

// ScaledProfile returns the named region profile scaled to the
// experiment size.
func ScaledProfile(name string, sc Scale) (workload.Profile, error) {
	p, err := workload.ProfileByName(name)
	if err != nil {
		return workload.Profile{}, err
	}
	p.RequestsPerDay = max1(int(float64(p.RequestsPerDay) * sc.Factor))
	p.CatalogSize = max1(int(float64(p.CatalogSize) * sc.Factor))
	p.NewVideosPerDay = int(float64(p.NewVideosPerDay) * sc.Factor)
	return p, nil
}

func max1(v int) int {
	if v < 1 {
		return 1
	}
	return v
}

// TraceFor generates the deterministic trace for a scaled profile.
func TraceFor(name string, sc Scale) ([]trace.Request, error) {
	_, reqs, err := generate(name, sc)
	return reqs, err
}

// generate is TraceFor that also returns the generator, which knows
// every video's size.
func generate(name string, sc Scale) (*workload.Generator, []trace.Request, error) {
	p, err := ScaledProfile(name, sc)
	if err != nil {
		return nil, nil, err
	}
	g, err := workload.NewGenerator(p)
	if err != nil {
		return nil, nil, err
	}
	reqs, err := g.Generate(sc.Days)
	if err != nil {
		return nil, nil, err
	}
	if len(reqs) == 0 {
		return nil, nil, fmt.Errorf("experiments: empty trace for %s", name)
	}
	return g, reqs, nil
}
