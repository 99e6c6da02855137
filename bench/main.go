// Command bench is the repository's one benchmark harness: four
// closed-loop workloads over real tcp:127.0.0.1 sockets, five end-to-end
// metrics whose timing members are ratios against a bare-socket reference
// kernel interleaved in the same seconds, and a traced run that fills a
// per-layer budget from outside. See README.md in this directory.
//
//	go run -C bench . -workload invoke_named -seed 1 -seconds 26 -trace 0
//	go run -C bench . -workload xfer_multiport_large -trace 1
//	go run -C bench . -selfcheck
//	go run -C bench . -compare out/a.json out/b.json
//
// The last line of standard output is the machine-readable result.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"pardis/internal/telemetry"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runOutput is what a run writes to out/: the result plus everything
// needed to judge it later (-compare reads these).
type runOutput struct {
	Workload string      `json:"workload"`
	Why      string      `json:"why"`
	Trace    bool        `json:"trace"`
	Env      envBlock    `json:"env"`
	Budget   []budgetRow `json:"budget,omitempty"`
	Cycles   []cycleRow  `json:"cycles"`
	SetupS   []float64   `json:"setup_wall_s"`
	SetupRef []float64   `json:"setup_ref_rounds_per_s"`
	result
}

// cycleRow is one cycle as measured, for whoever wants to look under
// the medians.
type cycleRow struct {
	Traced        bool    `json:"traced,omitempty"`
	OpsPerS       float64 `json:"ops_per_s"`
	P50Us         float64 `json:"p50_us"`
	RefRoundsPerS float64 `json:"ref_rounds_per_s"`
	RefP50Us      float64 `json:"ref_p50_us"`
	RefMeanUs     float64 `json:"ref_mean_us"`
	Mallocs       uint64  `json:"mallocs"`
	AllocBytes    uint64  `json:"alloc_bytes"`
}

const defaultSeconds = 26

func main() {
	workloadName := flag.String("workload", "", "workload to run (default: all four, one after the other)")
	seed := flag.Uint64("seed", 1, "seed of payload values and sampled verification indices")
	seconds := flag.Float64("seconds", defaultSeconds, "how long one run measures")
	trace := flag.Int("trace", 0, "1: traced run, prints the per-layer metrics; 0: end-to-end metrics")
	selfcheck := flag.Bool("selfcheck", false, "run two sets of runs of this same code and print what their agreement allows as bounds")
	compare := flag.Bool("compare", false, "compare two output files: -compare a.json b.json")
	outDir := flag.String("out", "out", "directory for result and trace files")
	flag.Parse()

	var err error
	switch {
	case *compare:
		err = runCompare(flag.Args())
	case *selfcheck:
		err = runSelfcheck(*seconds, *outDir)
	default:
		err = runWorkloads(*workloadName, *seed, *seconds, *trace != 0, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("failed or incorrect operations")

func runWorkloads(name string, seed uint64, seconds float64, traced bool, outDir string) error {
	todo := workloads
	if name != "" {
		w, ok := findWorkload(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		todo = []workload{w}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	bad := false
	for _, w := range todo {
		out, err := runOne(w, seed, seconds, traced, outDir)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		kind := "result"
		if traced {
			kind = "layers"
		}
		if err := writeJSON(filepath.Join(outDir, kind+"-"+w.name+".json"), out); err != nil {
			return err
		}
		line, err := json.Marshal(out.result)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		bad = bad || !out.Correct
	}
	if bad {
		return errIncorrect
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runOne runs one workload once and prints its human-readable report.
func runOne(w workload, seed uint64, seconds float64, traced bool, outDir string) (*runOutput, error) {
	pl := fullPlan(seconds)
	if traced {
		// Half the time for cycles, the rest for the layer replays.
		pl.seconds = seconds / 2
	}
	return runPlan(os.Stdout, w, seed, pl, traced, outDir)
}

// runPlan runs w once on plan pl and writes the human-readable report to
// report.
func runPlan(report io.Writer, w workload, seed uint64, pl plan, traced bool, outDir string) (*runOutput, error) {
	h := newHarness(seed, traced)
	m, inst, cp, err := runCycles(h, w, pl)
	if err != nil {
		return nil, err
	}
	out := &runOutput{Workload: w.name, Why: w.why, Trace: traced, Env: newEnv(seed)}
	out.Env.Cycles = len(m.cycles)
	out.Env.Elems = w.elems
	out.Env.SliceOps = m.sliceOps
	out.Env.RefBytes = m.refBytes
	out.Env.RefRounds = m.refRounds
	out.Env.RefNominal = w.refNominal

	if !traced {
		m.finish(inst, cp)
		out.Metrics = endToEnd(w, m)
		out.fill(m)
		printReport(report, w, out, m, nil)
		return out, nil
	}

	ls := layerSet{}
	ls.put("transport.conns_open", float64(telemetry.Default.GaugeValue("pardis_transport_conns_open")), "count")
	rp := &replayer{replayPlan: pl.replay, ls: ls, h: h, w: w}
	if err := rp.run(inst); err != nil {
		inst.close()
		cp.close()
		return nil, err
	}
	m.finish(inst, cp)
	if err := rp.replayColdStart(); err != nil {
		return nil, err
	}
	spans := h.tr.spans()
	out.Budget = perLayer(ls, w, m, spans)
	out.Metrics = ls
	out.fill(m)
	if err := writeTrace(filepath.Join(outDir, "trace-"+w.name+".json"), w.name, out.Env, h.tr, spans); err != nil {
		return nil, err
	}
	printReport(report, w, out, m, spans)
	return out, nil
}

// fill closes the result: an operation that failed, a wrong result or
// anything left behind at teardown makes the run incorrect.
func (out *runOutput) fill(m *measured) {
	out.SetupS, out.SetupRef = m.setupS, m.setupRef
	for _, c := range m.cycles {
		out.Cycles = append(out.Cycles, cycleRow{
			Traced: c.traced, OpsPerS: c.opsPerSec(), P50Us: float64(c.p50Ns) / 1e3,
			RefRoundsPerS: c.refPerSec(), RefP50Us: float64(c.refP50Ns) / 1e3, RefMeanUs: c.refMeanNs / 1e3,
			Mallocs: c.mallocs, AllocBytes: c.allocB,
		})
	}
	out.Attempted = m.attempted
	out.Failed = m.failed
	out.Correct = m.failed == 0 && m.leftBlocks == 0 && m.leftLeases == 0
}

func sortedNames(m map[string]metricValue) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
