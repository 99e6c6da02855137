// BENCHMARK.json, as this program reads it back: the bounds -compare and
// -selfcheck apply, and the names the tests hold the emitted metrics to.
package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// specPath is relative to this directory, which is the working directory
// under both `go run -C bench .` and `go test`.
const specPath = "../BENCHMARK.json"

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec() (*benchSpec, error) {
	b, err := os.ReadFile(specPath)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", specPath, err)
	}
	return &s, nil
}
