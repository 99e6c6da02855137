package idl

import (
	"strings"
	"testing"
)

// fixture sources exercising every printable construct.
var printFixtures = []string{
	paperIDL,
	`
module sim {
    typedef dsequence<double> field;
    module inner {
        interface solver {
            double norm(in field f);
        };
    };
};
`,
	`
enum color { RED, GREEN, BLUE };
struct point { double x; double y; long tag; };
const long MAX_ITER = 500;
const double EPS = 0.0015;
const string NAME = "pardis \"quoted\" \\ path\n";
const boolean ON = TRUE;
const boolean OFF = FALSE;
exception overflow { string reason; };
interface geo {
    readonly attribute long version;
    attribute double tolerance;
    point translate(in point p, in double dx);
    color classify(in point p) raises (overflow);
    oneway void nudge(in double dx);
};
`,
	`
typedef sequence<string> names;
typedef sequence<double, 16> small;
typedef long grid[4][8];
typedef string<32> label;
interface base { void ping(); };
interface derived : base {
    void pong(inout long state, out double result);
};
`,
}

// TestPrintParseFixpoint: Parse(Print(Parse(src))) == Parse(Print(...))
// — printing reaches a fixpoint after one round.
func TestPrintParseFixpoint(t *testing.T) {
	for i, src := range printFixtures {
		spec1, err := Parse(src)
		if err != nil {
			t.Fatalf("fixture %d: %v", i, err)
		}
		printed1 := Print(spec1)
		spec2, err := Parse(printed1)
		if err != nil {
			t.Fatalf("fixture %d: reparse failed: %v\n%s", i, err, printed1)
		}
		printed2 := Print(spec2)
		if printed1 != printed2 {
			t.Fatalf("fixture %d: print not a fixpoint:\n--- first ---\n%s\n--- second ---\n%s",
				i, printed1, printed2)
		}
		// The printed form must also pass semantic analysis.
		if _, err := ParseAndCheck(printed1); err != nil {
			t.Fatalf("fixture %d: printed form fails check: %v\n%s", i, err, printed1)
		}
	}
}

func TestPrintContainsConstructs(t *testing.T) {
	spec, err := Parse(printFixtures[2])
	if err != nil {
		t.Fatal(err)
	}
	out := Print(spec)
	for _, want := range []string{
		"enum color { RED, GREEN, BLUE };",
		"struct point {",
		"const long MAX_ITER = 500;",
		"const boolean ON = TRUE;",
		"readonly attribute long version;",
		"attribute double tolerance;",
		"oneway void nudge(in double dx);",
		"raises (overflow)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("printed form missing %q:\n%s", want, out)
		}
	}
}

func TestAttributesDesugarToOps(t *testing.T) {
	src := `
interface account {
    readonly attribute double balance;
    attribute string owner;
};
`
	c, err := ParseAndCheck(src)
	if err != nil {
		t.Fatal(err)
	}
	iface := c.Symbols["account"].(*Interface)
	ops := c.AllOps("", iface)
	names := map[string]bool{}
	for _, op := range ops {
		names[op.Name] = true
	}
	if !names["_get_balance"] || names["_set_balance"] {
		t.Fatalf("readonly attribute ops: %v", names)
	}
	if !names["_get_owner"] || !names["_set_owner"] {
		t.Fatalf("writable attribute ops: %v", names)
	}
	// The getter returns the attribute type; the setter takes it in.
	for _, op := range ops {
		switch op.Name {
		case "_get_balance":
			if b, ok := op.Result.(*Basic); !ok || b.Kind != Double {
				t.Fatalf("getter result: %v", op.Result)
			}
		case "_set_owner":
			if len(op.Params) != 1 || op.Params[0].Mode != ModeIn {
				t.Fatalf("setter params: %+v", op.Params)
			}
		}
	}
}

func TestAttributeCollisionRejected(t *testing.T) {
	src := `
interface a {
    attribute long x;
    void _get_x();
};
`
	if _, err := ParseAndCheck(src); err == nil {
		t.Fatal("attribute/op collision accepted")
	}
	dup := `
interface a {
    attribute long x;
    readonly attribute double x;
};
`
	if _, err := ParseAndCheck(dup); err == nil {
		t.Fatal("duplicate attribute accepted")
	}
}

func TestAttributeTypeChecked(t *testing.T) {
	src := `interface a { attribute nothing x; };`
	if _, err := ParseAndCheck(src); err == nil {
		t.Fatal("unknown attribute type accepted")
	}
	ds := `interface a { attribute dsequence<double> x; };`
	if _, err := ParseAndCheck(ds); err == nil {
		t.Fatal("dsequence attribute accepted (must be parameter-only)")
	}
}

func TestAttributeList(t *testing.T) {
	src := `interface a { attribute long x, y, z; };`
	c, err := ParseAndCheck(src)
	if err != nil {
		t.Fatal(err)
	}
	iface := c.Symbols["a"].(*Interface)
	if len(iface.Attrs) != 3 {
		t.Fatalf("attrs = %d", len(iface.Attrs))
	}
	if len(c.AllOps("", iface)) != 6 {
		t.Fatalf("ops = %d, want 6", len(c.AllOps("", iface)))
	}
}
