// -selfcheck: two sets of runs of this same code (A/A), and what their
// agreement allows as bounds.
package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// runChild runs one workload in a child process (a fresh process per
// run, as the pipeline does) and reads back the file it wrote.
func runChild(exe string, w workload, seed uint64, seconds float64, dir string) (*runOutput, error) {
	cmd := exec.Command(exe,
		"-workload", w.name,
		"-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", "0", "-out", dir)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w: %s", w.name, seed, err, stderr.String())
	}
	runs, err := loadRuns(filepath.Join(dir, "result-"+w.name+".json"))
	if err != nil {
		return nil, err
	}
	return &runs[0], nil
}

// selfcheckRuns is the runs per set and workload: the ten the pipeline
// makes, and the ten the committed bounds were derived from.
const selfcheckRuns = 10

func runSelfcheck(seconds float64, outDir string) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	tmp := filepath.Join(outDir, "selfcheck-runs")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	// A then B, then B then A, ... so neither set owns the earlier (or
	// the warmer) minutes. Every run has a seed of its own.
	var sets [2][]runOutput
	for i := 0; i < selfcheckRuns; i++ {
		order := [2]int{0, 1}
		if i%2 == 1 {
			order = [2]int{1, 0}
		}
		for _, s := range order {
			for _, w := range workloads {
				out, err := runChild(exe, w, uint64(2*i+s+1), seconds, tmp)
				if err != nil {
					return err
				}
				if !out.Correct {
					return fmt.Errorf("%s seed %d: %w", w.name, 2*i+s+1, errIncorrect)
				}
				sets[s] = append(sets[s], *out)
			}
		}
		fmt.Fprintf(os.Stderr, "selfcheck: pair %d of %d done\n", i+1, selfcheckRuns)
	}
	for s, name := range []string{"A", "B"} {
		if err := writeJSON(filepath.Join(outDir, "selfcheck-"+name+".json"), sets[s]); err != nil {
			return err
		}
	}

	// The table: per metric x workload the two medians, their relative
	// gap (signed: positive means B read worse) and the in-set quartile
	// spread; per metric the bound the largest gap allows.
	fmt.Printf("| workload | metric | median A | median B | gap (B worse by) | spread A | spread B | bound |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|\n")
	bad := 0
	for _, ms := range spec.EndToEnd {
		largest := 0.0
		for _, w := range workloads {
			a, b := values(sets[0], w.name, ms.Name), values(sets[1], w.name, ms.Name)
			_, worse, _ := judge(a, b, ms)
			sa, sb := iqrSpread(a), iqrSpread(b)
			fmt.Printf("| %s | %s | %.6g | %.6g | %+.2f%% | %.2f%% | %.2f%% | %.0f%% |\n",
				w.name, ms.Name, median(a), median(b), 100*worse, 100*sa, 100*sb, 100*ms.Bound)
			largest = math.Max(largest, math.Abs(worse))
			// The pipeline's two rules: the second median within the
			// bound of the first, and (except for setup_s) each set's
			// spread within the bound.
			if worse > ms.Bound {
				bad++
				fmt.Fprintf(os.Stderr, "selfcheck: %s/%s: B worse than A by %.2f%% > bound %.0f%%\n", w.name, ms.Name, 100*worse, 100*ms.Bound)
			}
			if ms.Name != "setup_s" && (sa > ms.Bound || sb > ms.Bound) {
				bad++
				fmt.Fprintf(os.Stderr, "selfcheck: %s/%s: spread %.2f%%/%.2f%% > bound %.0f%%\n", w.name, ms.Name, 100*sa, 100*sb, 100*ms.Bound)
			}
		}
		derived := math.Max(0.05, 2*largest)
		fmt.Printf("| (all) | %s | | | largest %.2f%% | | | derived max(5%%, 2 x gap) = %.1f%% |\n", ms.Name, 100*largest, 100*derived)
	}
	if bad > 0 {
		return fmt.Errorf("%d end-to-end metric x workload pairs disagree beyond their bound: lengthen the run before touching a definition", bad)
	}
	return nil
}
