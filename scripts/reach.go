//go:build ignore

// Command reach keeps the internal API to what the program uses: an
// exported top-level func, method, type, var or const declared in
// non-test Go under internal/ stays only if some non-test Go file
// outside bench/ names it, not counting its own declaration; a package
// under internal/ stays only if such a file imports it.
//
//	go run ./scripts/reach.go
//
// run from the module root. Every unreached identifier or package
// fails the lint unless the allow-list below names it with a class and
// a one-line reason. An allow-list entry that goes stale — reached
// now, or no longer declared — fails too, so the list only shrinks.
//
// The scan is name-based, not type-based. A package-level name is
// reached by a bare identifier in its own package or by a selector
// `pkg.Name` through an import of it. A method is reached by any
// selector `.Name`, whatever the receiver, so a common method name
// (Close, String) keeps every method of that name. Generated files
// (`// Code generated ... DO NOT EDIT.`) are skipped; in their place,
// every identifier inside a string literal of internal/idlgen, which
// emits that code, counts as a reference. A method's body does not
// reach its own name or its receiver type, and a declaration does not
// reach itself.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

const module = "pardis/"

// Allow-list classes.
const (
	// harness: bench/ imports it; it goes with ROADMAP item 2. Naming
	// it from a non-test file outside its own packages fails the lint.
	harness = "harness"
	// paper: a capability the paper describes that no caller uses yet.
	paper = "paper"
	// iface: a method that satisfies a standard-library interface.
	iface = "iface"
	// testpin: a non-test helper that tests in another package need;
	// pin names one such test.
	testpin = "testpin"
)

type entry struct {
	class  string
	reason string
	own    []string // harness: packages (under internal/) that may name it
	pin    string   // testpin: a test outside the declaring package that needs it
}

// allow is keyed by the declaration's path under internal/: "pkg.Name",
// "pkg.Recv.Name" for a method, or "pkg/" for a whole package.
var allow = map[string]entry{
	"orb.Client.SendBlock":               {harness, "bench/layers.go replays routed blocks", []string{"orb"}, ""},
	"orb.Server.ExpectBlocksFunc":        {harness, "bench/layers.go registers the routed-block sink", []string{"orb"}, ""},
	"giop.BlockTransferHeader":           {harness, "the routed-block header bench/layers.go sends", []string{"giop", "orb"}, ""},
	"giop.MsgBlockTransfer":              {harness, "the routed-block frame type bench/layers.go sends", []string{"giop", "orb"}, ""},
	"giop.DecodeRequestHeaderV":          {harness, "bench/layers.go decodes versioned request headers", []string{"giop"}, ""},
	"giop.FrameReader.ReadFrame":         {harness, "bench/layers.go reads whole frames; the read loops peek", []string{"giop"}, ""},
	"orb.Client.InvokeNamed":             {harness, "the invoke_named workload; cmd/ resolves and invokes in two steps", []string{"orb"}, ""},
	"orb.Client.BlockStats":              {harness, "bench/ reports spmd.pending_blocks", []string{"orb", "spmd"}, ""},
	"orb.Server.BlockStats":              {harness, "bench/ reports spmd.pending_blocks", []string{"orb", "spmd"}, ""},
	"spmd.Binding.BlockStats":            {harness, "bench/ reports spmd.pending_blocks", []string{"orb", "spmd"}, ""},
	"spmd.Object.BlockStats":             {harness, "bench/ reports spmd.pending_blocks", []string{"orb", "spmd"}, ""},
	"core.Domain.Resolver":               {harness, "the invoke_named workload resolves through the domain's agent resolver", []string{"core"}, ""},
	"dseq.Doubles.Redistribute":          {harness, "bench/layers.go measures dseq.redistribute_MBps", []string{"dseq"}, ""},
	"dseq.GatherDoubles":                 {harness, "bench/layers.go measures dseq.gather_MBps (ROADMAP item 16)", []string{"dseq"}, ""},
	"dseq.ScatterDoubles":                {harness, "bench/layers.go measures dseq.scatter_MBps (ROADMAP item 16)", []string{"dseq"}, ""},
	"rts.MessagePassing.ExposeWindow":    {harness, "bench/layers.go measures rts.window_put_MBps (ROADMAP item 16)", []string{"rts"}, ""},
	"rts.Window.Fence":                   {harness, "bench/layers.go measures rts.window_put_MBps (ROADMAP item 16)", []string{"rts"}, ""},
	"rts.MessagePassing.Proc":            {harness, "bench/layers.go times mp under the rts adapter", []string{"rts"}, ""},
	"spmd.DefaultAutoTune":               {harness, "bench/ reports tune.auto_tune", []string{"spmd"}, ""},
	"spmd.ResolvedXferChunkBytes":        {harness, "bench/ reports tune.xfer_chunk_bytes", []string{"spmd"}, ""},
	"tune/":                              {harness, "bench/ reports the tuner's rows until they are retired", []string{"tune"}, ""},
	"simnet.LANPath":                     {harness, "the tuner's test oracle until ROADMAP item 2(b)", []string{"simnet"}, ""},
	"simnet.WANPath":                     {harness, "the tuner's test oracle until ROADMAP item 2(b)", []string{"simnet"}, ""},
	"simnet.Path.TransferSeconds":        {harness, "the tuner's test oracle until ROADMAP item 2(b)", []string{"simnet"}, ""},
	"dseq.Doubles.SetLength":             {paper, "run-time relength of a distributed sequence (PAPER.md item 4)", nil, ""},
	"des.eventHeap.Less":                 {iface, "container/heap.Interface", nil, ""},
	"telemetry.discardHandler.WithAttrs": {iface, "slog.Handler", nil, ""},
	"telemetry.discardHandler.WithGroup": {iface, "slog.Handler", nil, ""},
	"transport.NewFaulty":                {testpin, "the fault-injection transport of the chaos suites", nil, "TestFaultResolveLiveAllReplicasStale"},
	"transport.Faulty.SetPlan":           {testpin, "changes a fault plan mid-test", nil, "TestFaultResolveLiveAllReplicasStale"},
	"giop.ReadMessage":                   {testpin, "reads one raw frame off a test peer", nil, "TestWireLabelsAddNoSeries"},
	"orb.WithByteOrder":                  {testpin, "plays a foreign-byte-order client", nil, "TestCentralizedCrossEndian"},
	"orb.WithServerByteOrder":            {testpin, "plays a foreign-byte-order server", nil, "TestCentralizedCrossEndian"},
	"orb.WithStripes":                    {testpin, "fixes the stripe width of a test client", nil, "TestParkedOutOnlyRequestCancellable"},
	"orb.WithBreaker":                    {testpin, "fixes the breaker threshold of a test client", nil, "TestReloadStaleEndpointsResolveLive"},
}

// decl is one exported top-level declaration under internal/.
type decl struct {
	pkg, recv, name string
	pos             token.Position
}

func (d decl) key() string {
	if d.recv != "" {
		return d.pkg + "." + d.recv + "." + d.name
	}
	return d.pkg + "." + d.name
}

// ref is one place a name is mentioned; pkg is the mentioning file's
// package path under internal/ ("" outside internal/).
type ref struct {
	pkg string
	pos token.Position
}

var (
	fset     = token.NewFileSet()
	decls    []decl
	bare     = map[string][]ref{} // "pkg.Name" mentioned bare inside pkg, or as pkg.Name through an import
	selected = map[string][]ref{} // Name mentioned as a selector .Name
	literal  = map[string][]ref{} // Name inside a string literal of internal/idlgen
	imported = map[string][]ref{} // package path under internal/ -> importers
	pkgs     = map[string]token.Position{}
	tests    = map[string][]string{} // test name -> directories of the _test.go files defining it
	testFunc = regexp.MustCompile(`(?m)^func (Test[A-Za-z0-9_]+)\(`)
	word     = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`)
)

func main() {
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != "." && (n == "bench" || n == "testdata" || strings.HasPrefix(n, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		if strings.HasSuffix(path, "_test.go") {
			src, err := os.ReadFile(path)
			for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
				tests[m[1]] = append(tests[m[1]], filepath.ToSlash(filepath.Dir(path)))
			}
			return err
		}
		return scan(filepath.ToSlash(path))
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(2)
	}
	report()
}

// internalPkg returns dir's path under internal/, or "" outside it.
func internalPkg(dir string) string {
	if rest, ok := strings.CutPrefix(dir, "internal/"); ok {
		return rest
	}
	return ""
}

func scan(path string) error {
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	if ast.IsGenerated(f) {
		return nil
	}
	pkg := internalPkg(filepath.ToSlash(filepath.Dir(path)))
	if pkg != "" {
		if _, ok := pkgs[pkg]; !ok {
			pkgs[pkg] = fset.Position(f.Package)
		}
	}
	imports := map[string]string{} // local name -> package path under internal/
	for _, is := range f.Imports {
		p, _ := strconv.Unquote(is.Path.Value)
		ip := internalPkg(strings.TrimPrefix(p, module))
		if !strings.HasPrefix(p, module) || ip == "" {
			continue
		}
		if ip != pkg {
			imported[ip] = append(imported[ip], ref{pkg, fset.Position(is.Pos())})
		}
		name := ip[strings.LastIndex(ip, "/")+1:]
		if is.Name != nil {
			name = is.Name.Name
		}
		imports[name] = ip
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			// A function does not reach itself; a method does not
			// reach its own name or its receiver type.
			if d.Recv == nil {
				declare(pkg, "", d.Name)
				walk(d, pkg, imports, "bare "+pkg+"."+d.Name.Name)
			} else {
				recv := recvName(d.Recv.List[0].Type)
				declare(pkg, recv, d.Name)
				walk(d, pkg, imports, "sel "+d.Name.Name, "bare "+pkg+"."+recv)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				var self []string
				switch s := s.(type) {
				case *ast.TypeSpec:
					declare(pkg, "", s.Name)
					self = append(self, "bare "+pkg+"."+s.Name.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						declare(pkg, "", n)
						self = append(self, "bare "+pkg+"."+n.Name)
					}
				}
				walk(s, pkg, imports, self...)
			}
		}
	}
	return nil
}

func declare(pkg, recv string, id *ast.Ident) {
	if pkg != "" && id.IsExported() {
		decls = append(decls, decl{pkg, recv, id.Name, fset.Position(id.Pos())})
	}
}

func recvName(x ast.Expr) string {
	for {
		switch t := x.(type) {
		case *ast.StarExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.IndexListExpr:
			x = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// walk records every name n mentions, except declared names, field and
// parameter names, and the keys in self ("bare pkg.Name", "sel Name").
func walk(n ast.Node, pkg string, imports map[string]string, self ...string) {
	skip := map[*ast.Ident]bool{}
	add := func(m map[string][]ref, kind, key string, pos token.Pos) {
		for _, s := range self {
			if s == kind+" "+key {
				return
			}
		}
		m[key] = append(m[key], ref{pkg, fset.Position(pos)})
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			skip[n.Name] = true
		case *ast.TypeSpec:
			skip[n.Name] = true
		case *ast.ValueSpec:
			for _, id := range n.Names {
				skip[id] = true
			}
		case *ast.Field:
			for _, id := range n.Names {
				skip[id] = true
			}
		case *ast.BasicLit:
			if pkg == "idlgen" && n.Kind == token.STRING {
				for _, w := range word.FindAllString(n.Value, -1) {
					literal[w] = append(literal[w], ref{pkg, fset.Position(n.Pos())})
				}
			}
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if ip, ok := imports[x.Name]; ok {
					add(bare, "bare", ip+"."+n.Sel.Name, n.Sel.Pos())
					return false
				}
			}
			skip[n.Sel] = true
			add(selected, "sel", n.Sel.Name, n.Sel.Pos())
		case *ast.Ident:
			if !skip[n] && pkg != "" {
				add(bare, "bare", pkg+"."+n.Name, n.Pos())
			}
		}
		return true
	})
}

// refs returns the mentions that reach d.
func refs(d decl) []ref {
	r := append([]ref(nil), literal[d.name]...)
	if d.recv != "" {
		return append(r, selected[d.name]...)
	}
	return append(r, bare[d.pkg+"."+d.name]...)
}

func report() {
	var problems []string
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key()] = true
	}
	for p := range pkgs {
		declared[p+"/"] = true
	}
	check := func(key, pkg string, pos token.Position, rs []ref) {
		if _, ok := allow[pkg+"/"]; ok && key != pkg+"/" {
			return // a whole package's entry covers its members; its importers are checked
		}
		e, ok := allow[key]
		var outside []ref // mentions outside a harness entry's own packages
		for _, r := range rs {
			if !slices.Contains(e.own, r.pkg) {
				outside = append(outside, r)
			}
		}
		switch {
		case !ok && len(rs) == 0:
			problems = append(problems, fmt.Sprintf("%s: %s is reached by no non-test code outside bench/", pos, key))
		case ok && e.class == harness && len(outside) > 0:
			problems = append(problems, fmt.Sprintf("%s: %s is kept only for bench/ (%s), but %s uses it",
				pos, key, e.reason, outside[0].pos))
		case ok && len(outside) > 0:
			problems = append(problems, fmt.Sprintf("%s: allow-list entry %s is stale: %s reaches it", pos, key, outside[0].pos))
		}
	}
	for _, d := range decls {
		check(d.key(), d.pkg, d.pos, refs(d))
	}
	for p, pos := range pkgs {
		check(p+"/", p, pos, imported[p])
	}
	for key, e := range allow {
		switch {
		case !declared[key]:
			problems = append(problems, fmt.Sprintf("allow-list entry %s is stale: nothing under internal/ declares it", key))
		case e.class != harness && e.class != paper && e.class != iface && e.class != testpin:
			problems = append(problems, fmt.Sprintf("allow-list entry %s has unknown class %q", key, e.class))
		case e.reason == "":
			problems = append(problems, fmt.Sprintf("allow-list entry %s gives no reason", key))
		case e.class == harness && len(e.own) == 0:
			problems = append(problems, fmt.Sprintf("harness entry %s names no package of its own", key))
		case e.class == testpin && !pinnedElsewhere(key, e.pin):
			problems = append(problems, fmt.Sprintf("testpin entry %s names %q, which no _test.go outside its package defines", key, e.pin))
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		fmt.Println("reach:", p)
	}
	if n := len(problems); n > 0 {
		fmt.Fprintf(os.Stderr, "reach: %d problem(s); delete what nothing reaches, or allow-list it with a class and a reason\n", n)
		os.Exit(1)
	}
	byClass := map[string]int{}
	for _, e := range allow {
		byClass[e.class]++
	}
	fmt.Printf("reach: ok (%d exported declarations, %d packages; allow-list: %d harness, %d paper, %d iface, %d testpin)\n",
		len(decls), len(pkgs), byClass[harness], byClass[paper], byClass[iface], byClass[testpin])
}

// pinnedElsewhere reports whether a _test.go outside the package of the
// declaration key defines test.
func pinnedElsewhere(key, test string) bool {
	own := "internal/" + key[:strings.Index(key, ".")]
	for _, dir := range tests[test] {
		if dir != own {
			return true
		}
	}
	return false
}
