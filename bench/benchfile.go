package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchFile is BENCHMARK.json at the checkout root: the contract the
// driver checks this benchmark against. The bench reads its metric
// lists from it instead of repeating them, so the two cannot drift.
type benchFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadBenchFile(root string) (*benchFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// conform puts a result's metrics into the file's order and checks them
// against it. An end-to-end metric must be measured on every workload.
// A per-layer metric that does not exist on a workload (an origin span
// on replay-cafe, a replay cost on an http workload) is reported as 0.
func (b *benchFile) conform(res *result, traced bool) error {
	specs := b.EndToEnd
	if traced {
		specs = b.PerLayer
	}
	units := map[string]string{}
	var out []metric
	for _, spec := range specs {
		units[spec.Name] = spec.Unit
		v, ok := res.value(spec.Name)
		if !ok && !traced {
			return fmt.Errorf("end-to-end metric %s of BENCHMARK.json was not measured", spec.Name)
		}
		out = append(out, metric{spec.Name, spec.Unit, v})
	}
	for _, m := range res.metrics {
		if unit, ok := units[m.name]; !ok {
			return fmt.Errorf("metric %s is not in BENCHMARK.json", m.name)
		} else if unit != m.unit {
			return fmt.Errorf("metric %s: unit %q here, %q in BENCHMARK.json", m.name, m.unit, unit)
		}
	}
	res.metrics = out
	return nil
}
