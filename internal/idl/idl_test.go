package idl

import (
	"strings"
	"testing"
	"testing/quick"
)

const paperIDL = `
// The paper's §2.1 example interface.
typedef dsequence<double, 1024, BLOCK> diffusion_array;

interface diffusion_object {
    void diffusion(in long timestep, inout diffusion_array myarray);
};
`

func TestTokenizeBasics(t *testing.T) {
	toks, err := Tokenize(`interface foo { void op(in long x); };`)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []TokKind{TokKeyword, TokIdent, TokPunct, TokKeyword, TokIdent,
		TokPunct, TokKeyword, TokKeyword, TokIdent, TokPunct, TokPunct, TokPunct, TokPunct, TokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("token count = %d, want %d: %v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Fatalf("token %d = %v (%s), want kind %v", i, toks[i].Kind, toks[i], k)
		}
	}
}

func TestTokenizeComments(t *testing.T) {
	src := `
// line comment
/* block
   comment */
#pragma prefix "x"
interface /*inline*/ a { };
`
	toks, err := Tokenize(src)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Text != "interface" || toks[1].Text != "a" {
		t.Fatalf("tokens = %v", toks[:3])
	}
}

func TestTokenizeLiterals(t *testing.T) {
	toks, err := Tokenize(`1024 3.5 1e6 0x1F "hi\n" 'c'`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != TokIntLit || toks[0].Text != "1024" {
		t.Fatalf("int: %v", toks[0])
	}
	if toks[1].Kind != TokFloatLit || toks[1].Text != "3.5" {
		t.Fatalf("float: %v", toks[1])
	}
	if toks[2].Kind != TokFloatLit || toks[2].Text != "1e6" {
		t.Fatalf("exp float: %v", toks[2])
	}
	if toks[3].Kind != TokIntLit || toks[3].Text != "0x1F" {
		t.Fatalf("hex: %v", toks[3])
	}
	if toks[4].Kind != TokStringLit || toks[4].Text != "hi\n" {
		t.Fatalf("string: %v", toks[4])
	}
	if toks[5].Kind != TokCharLit || toks[5].Text != "c" {
		t.Fatalf("char: %v", toks[5])
	}
}

func TestTokenizeErrors(t *testing.T) {
	for _, src := range []string{`"unterminated`, `/* unterminated`, `@`, `'x`} {
		if _, err := Tokenize(src); err == nil {
			t.Fatalf("Tokenize(%q) accepted", src)
		}
	}
}

func TestParsePaperExample(t *testing.T) {
	spec, err := Parse(paperIDL)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Defs) != 2 {
		t.Fatalf("defs = %d", len(spec.Defs))
	}
	td, ok := spec.Defs[0].(*Typedef)
	if !ok {
		t.Fatalf("first def: %T", spec.Defs[0])
	}
	ds, ok := td.Type.(*DSequence)
	if !ok {
		t.Fatalf("typedef type: %T", td.Type)
	}
	if ds.Bound != 1024 || ds.Dist != "BLOCK" {
		t.Fatalf("dsequence = %+v", ds)
	}
	if b, ok := ds.Elem.(*Basic); !ok || b.Kind != Double {
		t.Fatalf("element = %v", ds.Elem)
	}
	iface, ok := spec.Defs[1].(*Interface)
	if !ok || iface.Name != "diffusion_object" {
		t.Fatalf("iface = %+v", spec.Defs[1])
	}
	op := iface.Ops[0]
	if op.Name != "diffusion" || op.Result != nil || len(op.Params) != 2 {
		t.Fatalf("op = %+v", op)
	}
	if op.Params[0].Mode != ModeIn || op.Params[1].Mode != ModeInOut {
		t.Fatalf("modes = %v %v", op.Params[0].Mode, op.Params[1].Mode)
	}
}

func TestParseModulesAndScopes(t *testing.T) {
	src := `
module sim {
    typedef dsequence<double> field;
    module inner {
        interface solver {
            double norm(in field f);
        };
    };
};
`
	c, err := ParseAndCheck(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Symbols["sim::inner::solver"]; !ok {
		t.Fatalf("symbols: %v", keysOf(c.Symbols))
	}
	if len(c.Interfaces) != 1 || c.Interfaces[0].ScopedName != "sim::inner::solver" {
		t.Fatalf("interfaces: %+v", c.Interfaces)
	}
}

func TestParseStructEnumConst(t *testing.T) {
	src := `
enum color { RED, GREEN, BLUE };
struct point { double x, y; long tag; };
const long MAX_ITER = 500;
const double EPS = 1.5e-3;
const string NAME = "pardis";
const boolean ON = TRUE;
interface geo {
    point translate(in point p, in double dx);
    color classify(in point p);
};
`
	c, err := ParseAndCheck(src)
	if err != nil {
		t.Fatal(err)
	}
	e := c.Symbols["color"].(*EnumDef)
	if len(e.Members) != 3 || e.Members[2] != "BLUE" {
		t.Fatalf("enum: %+v", e)
	}
	s := c.Symbols["point"].(*StructDef)
	if len(s.Members) != 3 || s.Members[1].Name != "y" {
		t.Fatalf("struct: %+v", s)
	}
	if v := c.Symbols["MAX_ITER"].(*ConstDef).Value; v != int64(500) {
		t.Fatalf("const long: %v", v)
	}
	if v := c.Symbols["EPS"].(*ConstDef).Value; v != 1.5e-3 {
		t.Fatalf("const double: %v", v)
	}
	if v := c.Symbols["NAME"].(*ConstDef).Value; v != "pardis" {
		t.Fatalf("const string: %v", v)
	}
	if v := c.Symbols["ON"].(*ConstDef).Value; v != true {
		t.Fatalf("const bool: %v", v)
	}
}

func TestParseInheritance(t *testing.T) {
	src := `
interface base { void ping(); };
interface derived : base { void pong(); };
`
	c, err := ParseAndCheck(src)
	if err != nil {
		t.Fatal(err)
	}
	d := c.Symbols["derived"].(*Interface)
	ops := c.AllOps("", d)
	if len(ops) != 2 || ops[0].Name != "ping" || ops[1].Name != "pong" {
		t.Fatalf("all ops: %v", opNames(ops))
	}
}

func TestInheritanceOverride(t *testing.T) {
	src := `
interface base { void ping(in long a); };
interface derived : base { void ping(in long a); void pong(); };
`
	c, err := ParseAndCheck(src)
	if err != nil {
		t.Fatal(err)
	}
	d := c.Symbols["derived"].(*Interface)
	ops := c.AllOps("", d)
	if len(ops) != 2 {
		t.Fatalf("all ops: %v", opNames(ops))
	}
}

func TestParseOneway(t *testing.T) {
	src := `interface mon { oneway void report(in double v); };`
	c, err := ParseAndCheck(src)
	if err != nil {
		t.Fatal(err)
	}
	op := c.Symbols["mon"].(*Interface).Ops[0]
	if !op.Oneway {
		t.Fatal("oneway not recorded")
	}
}

func TestParseRaises(t *testing.T) {
	src := `
exception overflow { string reason; };
interface calc { double div(in double a, in double b) raises (overflow); };
`
	c, err := ParseAndCheck(src)
	if err != nil {
		t.Fatal(err)
	}
	op := c.Symbols["calc"].(*Interface).Ops[0]
	if len(op.Raises) != 1 || op.Raises[0] != "overflow" {
		t.Fatalf("raises = %v", op.Raises)
	}
}

func TestParseArrayTypedef(t *testing.T) {
	src := `typedef long grid[8][16];`
	c, err := ParseAndCheck(src)
	if err != nil {
		t.Fatal(err)
	}
	td := c.Symbols["grid"].(*Typedef)
	if len(td.ArrayDims) != 2 || td.ArrayDims[0] != 8 || td.ArrayDims[1] != 16 {
		t.Fatalf("dims = %v", td.ArrayDims)
	}
}

func TestSemaErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"unknown type", `interface i { void f(in nothing x); };`, "unknown type"},
		{"duplicate def", `interface a { }; interface a { };`, "duplicate definition"},
		{"duplicate op", `interface a { void f(); void f(); };`, "duplicate operation"},
		{"dup enum member", `enum e { A, A };`, "duplicate enum member"},
		{"dup struct member", `struct s { long a; double a; };`, "duplicate member"},
		{"dseq in struct", `struct s { dsequence<double> d; };`, "operation parameter"},
		{"dseq non double", `interface i { void f(in dsequence<long> d); };`, "only double"},
		{"dseq bad dist", `interface i { void f(in dsequence<double, CYCLIC> d); };`, "unknown distribution"},
		{"seq of dseq", `interface i { void f(in sequence< dsequence<double> > x); };`, "not allowed"},
		{"oneway out", `interface i { oneway void f(out long x); };`, "non-in parameter"},
		{"bad inherit", `struct s { long a; }; interface i : s { };`, "non-interface"},
		{"unknown inherit", `interface i : nope { };`, "unknown"},
		{"raises non-exc", `struct s { long a; }; interface i { void f() raises (s); };`, "non-exception"},
		{"const type", `const long x = "hi";`, "expected integer"},
		{"struct cycle", `struct a { a self; };`, "contains itself"},
		{"exception as type", `exception e { long a; }; interface i { void f(in e x); };`, "used as a type"},
		{"dseq as result", `interface i { dsequence<double> f(); };`, "operation parameter"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseAndCheck(tc.src)
			if err == nil {
				t.Fatalf("accepted: %s", tc.src)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestStructCycleThroughSequenceAllowed(t *testing.T) {
	// Indirection through a sequence is legal (like a pointer).
	src := `struct node { long v; sequence<node> children; };`
	if _, err := ParseAndCheck(src); err != nil {
		t.Fatal(err)
	}
}

func TestMutualStructCycleRejected(t *testing.T) {
	src := `struct a { long x; }; struct b { a m; }; struct c { b m; };`
	if _, err := ParseAndCheck(src); err != nil {
		t.Fatal(err)
	}
	bad := `struct p { q m; };` // q undefined → unknown type first
	if _, err := ParseAndCheck(bad); err == nil {
		t.Fatal("undefined member type accepted")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`interface {`,
		`interface a { void f(long x); };`, // missing mode
		`typedef double;`,
		`module m interface i { };`,
		`interface a { void f(in long x) };`, // missing ;
		`enum e { };`,
		`const long x = ;`,
		`interface a { oneway long f(); };`,
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Fatalf("Parse(%q) accepted", src)
		}
	}
}

func TestReopenedModule(t *testing.T) {
	src := `
module m { interface a { void f(); }; };
module m { interface b { void g(); }; };
`
	c, err := ParseAndCheck(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Symbols["m::a"]; !ok {
		t.Fatal("m::a missing")
	}
	if _, ok := c.Symbols["m::b"]; !ok {
		t.Fatal("m::b missing")
	}
}

func TestBasicTypeParsing(t *testing.T) {
	src := `
interface t {
    void f(in short a, in unsigned short b, in long c, in unsigned long d,
           in long long e, in unsigned long long f, in float g, in double h,
           in boolean i, in char j, in octet k, in string l, in string<16> m);
};
`
	c, err := ParseAndCheck(src)
	if err != nil {
		t.Fatal(err)
	}
	op := c.Symbols["t"].(*Interface).Ops[0]
	wantNames := []string{"short", "unsigned short", "long", "unsigned long",
		"long long", "unsigned long long", "float", "double",
		"boolean", "char", "octet", "string", "string<16>"}
	if len(op.Params) != len(wantNames) {
		t.Fatalf("params = %d", len(op.Params))
	}
	for i, w := range wantNames {
		if op.Params[i].Type.TypeName() != w {
			t.Fatalf("param %d type = %s, want %s", i, op.Params[i].Type.TypeName(), w)
		}
	}
}

// Property: the lexer never panics and either errors or terminates
// with EOF on arbitrary input.
func TestQuickLexerTotal(t *testing.T) {
	f := func(src string) bool {
		toks, err := Tokenize(src)
		if err != nil {
			return true
		}
		return len(toks) > 0 && toks[len(toks)-1].Kind == TokEOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: parsing arbitrary strings never panics.
func TestQuickParserTotal(t *testing.T) {
	f := func(src string) bool {
		_, _ = ParseAndCheck(src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func keysOf(m map[string]Def) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func opNames(ops []*Operation) []string {
	out := make([]string, len(ops))
	for i, o := range ops {
		out[i] = o.Name
	}
	return out
}
