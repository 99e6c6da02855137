// Command pardis-bench regenerates the paper's evaluation artifacts
// from the calibrated testbed model:
//
//	pardis-bench -table 1      # Table 1 (centralized transfer grid)
//	pardis-bench -table 2      # Table 2 (multi-port transfer grid)
//	pardis-bench -figure 4     # Figure 4 (bandwidth vs length, n=4 m=8)
//	pardis-bench -spot uneven  # §3.3 n=3 m=5 check
//	pardis-bench -all          # everything, plus the deviation summary
//
// Each output shows the model value next to the paper's published
// value. See EXPERIMENTS.md for the per-cell comparison and the
// Figure 4 unit reconciliation.
//
// -overhead instead A/Bs the in-process echo workload with the
// observability plane's hot-path additions off vs on and gates the
// median throughput cost on the instrumentation budget (see
// overhead.go; `make bench-overhead`):
//
//	pardis-bench -overhead -overhead-gate
//
// Performance of the real stack is measured by the benchmark harness
// in bench/ (`make bench`), not here.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"pardis/internal/perfmodel"
	"pardis/internal/simnet"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pardis-bench:", err)
	os.Exit(1)
}

func main() {
	table := flag.Int("table", 0, "regenerate table 1 or 2")
	figure := flag.Int("figure", 0, "regenerate figure 4")
	spot := flag.String("spot", "", "spot checks: 'uneven' (§3.3 n=3 m=5)")
	study := flag.String("study", "", "extension studies: 'dist' (§5 argument-distribution study)")
	csv := flag.Bool("csv", false, "emit CSV instead of formatted tables")
	all := flag.Bool("all", false, "regenerate everything")
	seed := flag.Int64("seed", 0, "override simulation seed (0 = calibrated default)")
	reps := flag.Int("reps", 0, "override invocation repetitions (0 = default)")
	ops := flag.Int("ops", 5000, "invocations per side and round in -overhead mode")
	doubles := flag.Int("doubles", 256, "payload doubles per invocation in -overhead mode")
	concurrency := flag.Int("concurrency", 4, "concurrent invokers in -overhead mode")
	jsonOut := flag.Bool("json", false, "emit the -overhead summary as JSON")
	overhead := flag.Bool("overhead", false, "measure the observability plane's throughput cost: A/B the echo workload with exemplars+flight recorder+digest collection off vs on")
	overheadRounds := flag.Int("overhead-rounds", 5, "interleaved baseline/loaded round pairs in -overhead mode")
	overheadSample := flag.Float64("overhead-sample", 0.05, "trace-sampling rate held equal on both -overhead sides (exemplars need sampled traces)")
	overheadBudget := flag.Float64("overhead-budget", 0.05, "instrumentation budget as a fraction of baseline throughput")
	overheadGate := flag.Bool("overhead-gate", false, "exit nonzero when the median -overhead cost exceeds -overhead-budget")
	flag.Parse()

	if *overhead {
		runOverhead(overheadConfig{
			ops:         *ops,
			doubles:     *doubles,
			concurrency: *concurrency,
			rounds:      *overheadRounds,
			sample:      *overheadSample,
			budget:      *overheadBudget,
			gate:        *overheadGate,
			jsonOut:     *jsonOut,
		})
		return
	}

	p := simnet.DefaultParams()
	if *seed != 0 {
		p.Seed = *seed
	}
	if *reps > 0 {
		p.Reps = *reps
	}

	ran := false
	if *all || *table == 1 {
		rows := perfmodel.Table1(p)
		if *csv {
			fmt.Print(perfmodel.CSVTable1(rows))
		} else {
			fmt.Print(perfmodel.FormatTable1(rows))
		}
		fmt.Println()
		ran = true
	}
	if *all || *table == 2 {
		rows := perfmodel.Table2(p)
		if *csv {
			fmt.Print(perfmodel.CSVTable2(rows))
		} else {
			fmt.Print(perfmodel.FormatTable2(rows))
		}
		fmt.Println()
		ran = true
	}
	if *all || *figure == 4 {
		pts := perfmodel.Figure4(p, nil)
		if *csv {
			fmt.Print(perfmodel.CSVFigure4(pts))
		} else {
			fmt.Print(perfmodel.FormatFigure4(pts))
		}
		fmt.Println()
		ran = true
	}
	if *all || *study == "dist" {
		fmt.Print(perfmodel.FormatDistStudy(perfmodel.DistStudy(p)))
		fmt.Println()
		ran = true
	}
	if *all || *spot == "uneven" {
		model, paper := perfmodel.SpotUneven(p)
		fmt.Printf("§3.3 uneven split (n=3, m=5, 2^17 doubles, multi-port):\n")
		fmt.Printf("  model %.0f ms | paper ~%.0f ms\n\n", model, paper)
		ran = true
	}
	if *all {
		t1, t2 := perfmodel.Deviations(p)
		worst, sum := 0.0, 0.0
		for _, d := range append(t1, t2...) {
			r := math.Abs(d.Relative())
			sum += r
			if r > worst {
				worst = r
			}
		}
		fmt.Printf("deviation summary over %d grid totals: mean %.1f%%, worst %.1f%%\n",
			len(t1)+len(t2), 100*sum/float64(len(t1)+len(t2)), 100*worst)
		ran = true
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}
