// -compare a.json b.json: apply the benchmark's bounds to two outputs.
// Each file holds one run or a list of runs (any workloads, any number
// of runs each; -selfcheck writes such lists).
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

func loadRuns(path string) ([]runOutput, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var runs []runOutput
	if bytes.HasPrefix(bytes.TrimSpace(b), []byte("[")) {
		err = json.Unmarshal(b, &runs)
	} else {
		var one runOutput
		err = json.Unmarshal(b, &one)
		runs = []runOutput{one}
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return runs, nil
}

// comparable refuses outputs that measured different things: another
// CPU, another GOMAXPROCS, another Go, or other workload parameters.
func comparable(a, b envBlock) error {
	switch {
	case a.CPUModel != b.CPUModel:
		return fmt.Errorf("CPU model differs: %q vs %q", a.CPUModel, b.CPUModel)
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Errorf("GOMAXPROCS differs: %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	case a.GoVersion != b.GoVersion:
		return fmt.Errorf("Go version differs: %s vs %s", a.GoVersion, b.GoVersion)
	case a.ClientThreads != b.ClientThreads || a.ServerThreads != b.ServerThreads ||
		a.Elems != b.Elems || a.RefBytes != b.RefBytes || a.RefNominal != b.RefNominal:
		return fmt.Errorf("workload parameters differ: n=%d m=%d elems=%d ref=%dB nominal=%g/s vs n=%d m=%d elems=%d ref=%dB nominal=%g/s",
			a.ClientThreads, a.ServerThreads, a.Elems, a.RefBytes, a.RefNominal,
			b.ClientThreads, b.ServerThreads, b.Elems, b.RefBytes, b.RefNominal)
	}
	return nil
}

// Verdicts of one metric on one workload.
const (
	verdictUnchanged  = "unchanged"
	verdictImproved   = "improved"
	verdictRegressed  = "REGRESSED"
	verdictUnresolved = "unresolved"
)

// judge applies the rule of the choosing-metrics guide: b's median may
// not be worse than a's by more than bound; where the run-to-run spread
// is wider than the bound the metric is unresolved, not unchanged,
// unless every run of b reads better than every run of a.
func judge(a, b []float64, spec metricSpec) (verdict string, worse, spread float64) {
	ma, mb := median(a), median(b)
	sign := 1.0 // worse means larger
	if spec.Better == "higher" {
		sign = -1
	}
	worse = sign * ratio(mb-ma, ma)
	if len(a) > 1 {
		spread = iqrSpread(a)
	}
	if len(b) > 1 {
		if s := iqrSpread(b); s > spread {
			spread = s
		}
	}
	if spread > spec.Bound {
		allBetter := true
		for _, x := range a {
			for _, y := range b {
				if sign*(y-x) >= 0 {
					allBetter = false
				}
			}
		}
		if allBetter {
			return verdictImproved, worse, spread
		}
		return verdictUnresolved, worse, spread
	}
	switch {
	case worse > spec.Bound:
		return verdictRegressed, worse, spread
	case worse < -spec.Bound:
		return verdictImproved, worse, spread
	}
	return verdictUnchanged, worse, spread
}

func values(runs []runOutput, workload, metric string) []float64 {
	var v []float64
	for _, r := range runs {
		if mv, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
			v = append(v, mv.Value)
		}
	}
	return v
}

// envOf is the environment block of runs' untraced runs of workload (nil
// if there is none).
func envOf(runs []runOutput, workload string) *envBlock {
	for i := range runs {
		if runs[i].Workload == workload && !runs[i].Trace {
			return &runs[i].Env
		}
	}
	return nil
}

func runCompare(files []string) error {
	if len(files) != 2 {
		return fmt.Errorf("-compare wants two files, got %d", len(files))
	}
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	a, err := loadRuns(files[0])
	if err != nil {
		return err
	}
	b, err := loadRuns(files[1])
	if err != nil {
		return err
	}
	regressed := 0
	fmt.Printf("%-24s %-20s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "median a", "median b", "worse by", "spread", "bound", "verdict")
	for _, w := range spec.Workloads {
		ea, eb := envOf(a, w.Name), envOf(b, w.Name)
		if ea == nil || eb == nil {
			continue
		}
		if err := comparable(*ea, *eb); err != nil {
			return fmt.Errorf("refusing to compare %s: %w", w.Name, err)
		}
		for _, ms := range spec.EndToEnd {
			va, vb := values(a, w.Name, ms.Name), values(b, w.Name, ms.Name)
			verdict, worse, spread := judge(va, vb, ms)
			if verdict == verdictRegressed {
				regressed++
			}
			fmt.Printf("%-24s %-20s %14.6g %14.6g %+8.2f%% %7.2f%% %6.1f%%  %s\n",
				w.Name, ms.Name, median(va), median(vb), 100*worse, 100*spread, 100*ms.Bound, verdict)
		}
	}
	if regressed > 0 {
		fmt.Fprintf(os.Stderr, "%d metric(s) regressed beyond their bound\n", regressed)
		return errIncorrect
	}
	return nil
}
