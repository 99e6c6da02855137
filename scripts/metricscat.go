//go:build ignore

// Command metricscat keeps the metrics catalogue honest: every
// `pardis_*` metric name that appears as a string literal in
// non-test Go source must have a row in DESIGN.md's catalogue table
// (`| `pardis_...` | ...`), and every catalogued row must still have
// a literal in code. Either direction drifting — a metric shipped
// without documentation, or a row outliving its metric — fails the
// build. Each row's last cell names the test that pins the metric's
// value (`| ... | `TestX` |`); a row whose test is missing, or names
// no `func TestX(` in any _test.go under the catalogue's directory,
// fails too:
//
//	go run ./scripts/metricscat.go DESIGN.md internal cmd
//
// The scan is deliberately literal-based, not registry-based: the
// convention in this codebase is that metric names are whole string
// constants (`telemetry.Default.Counter("pardis_x_total")`), so a
// simple source scan sees exactly what the registry will, without
// running anything.
package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

var (
	codeMetric = regexp.MustCompile(`"(pardis_[a-z0-9_]+)"`)
	docMetric  = regexp.MustCompile("(?m)^\\| `(pardis_[a-z0-9_]+)`.*\\|[ \t]*$")
	pinnedBy   = regexp.MustCompile("\\| `(Test[A-Za-z0-9_]+)` \\|[ \t]*$")
	testFunc   = regexp.MustCompile(`(?m)^func (Test[A-Za-z0-9_]+)\(`)
)

func main() {
	args := os.Args[1:]
	if len(args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: metricscat.go DESIGN.md root [root...]")
		os.Exit(2)
	}
	doc, roots := args[0], args[1:]

	inCode := map[string][]string{} // metric -> files mentioning it
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range codeMetric.FindAllStringSubmatch(string(src), -1) {
				inCode[m[1]] = append(inCode[m[1]], path)
			}
			return nil
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "metricscat:", err)
			os.Exit(2)
		}
	}

	docSrc, err := os.ReadFile(doc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "metricscat:", err)
		os.Exit(2)
	}
	inDoc := map[string]bool{}
	pins := map[string]string{} // metric -> pinning test named by its row
	for _, m := range docMetric.FindAllStringSubmatch(string(docSrc), -1) {
		inDoc[m[1]] = true
		if p := pinnedBy.FindStringSubmatch(m[0]); p != nil {
			pins[m[1]] = p[1]
		}
	}
	tests, err := testFuncs(filepath.Dir(doc))
	if err != nil {
		fmt.Fprintln(os.Stderr, "metricscat:", err)
		os.Exit(2)
	}

	var missing []string // in code, not catalogued
	for name, files := range inCode {
		if !inDoc[name] {
			sort.Strings(files)
			missing = append(missing, fmt.Sprintf("%s (in %s) has no catalogue row in %s",
				name, files[0], doc))
		}
	}
	var stale []string // catalogued, gone from code
	for name := range inDoc {
		if _, ok := inCode[name]; !ok {
			stale = append(stale, fmt.Sprintf("%s is catalogued in %s but appears nowhere in code",
				name, doc))
		}
	}
	var unpinned []string // catalogued without an existing pinning test
	for name := range inDoc {
		switch test, ok := pins[name]; {
		case !ok:
			unpinned = append(unpinned, fmt.Sprintf("%s names no pinning test in %s", name, doc))
		case !tests[test]:
			unpinned = append(unpinned, fmt.Sprintf("%s is pinned by %s, which no _test.go defines", name, test))
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	sort.Strings(unpinned)
	problems := append(append(missing, stale...), unpinned...)
	for _, s := range problems {
		fmt.Println("metricscat:", s)
	}
	if n := len(problems); n > 0 {
		fmt.Fprintf(os.Stderr, "metricscat: %d metric(s) out of sync with the catalogue\n", n)
		os.Exit(1)
	}
	fmt.Printf("metricscat: ok (%d metrics catalogued, each pinned by a test)\n", len(inCode))
}

// testFuncs returns the names of every func TestX( declared in a
// _test.go file under root.
func testFuncs(root string) (map[string]bool, error) {
	tests := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
			tests[m[1]] = true
		}
		return nil
	})
	return tests, err
}
