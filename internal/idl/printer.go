package idl

import (
	"fmt"
	"strings"
)

// Print renders a specification back to canonical IDL source. The
// output is stable (Parse(Print(spec)) yields an equivalent spec) and
// is what `pardisc -fmt` emits.
func Print(spec *Spec) string {
	var p printer
	for i, d := range spec.Defs {
		if i > 0 {
			p.line("")
		}
		p.def(d)
	}
	return p.b.String()
}

type printer struct {
	b      strings.Builder
	indent int
}

func (p *printer) line(s string) {
	for i := 0; i < p.indent; i++ {
		p.b.WriteString("    ")
	}
	p.b.WriteString(s)
	p.b.WriteByte('\n')
}

func (p *printer) def(d Def) {
	switch v := d.(type) {
	case *Module:
		p.line("module " + v.Name + " {")
		p.indent++
		for i, inner := range v.Defs {
			if i > 0 {
				p.line("")
			}
			p.def(inner)
		}
		p.indent--
		p.line("};")
	case *Interface:
		head := "interface " + v.Name
		if len(v.Bases) > 0 {
			head += " : " + strings.Join(v.Bases, ", ")
		}
		p.line(head + " {")
		p.indent++
		for _, inner := range v.Decls {
			p.def(inner)
		}
		for _, at := range v.Attrs {
			ro := ""
			if at.Readonly {
				ro = "readonly "
			}
			p.line(fmt.Sprintf("%sattribute %s %s;", ro, TypeString(at.Type), at.Name))
		}
		for _, op := range v.Ops {
			p.op(op)
		}
		p.indent--
		p.line("};")
	case *Typedef:
		dims := ""
		for _, n := range v.ArrayDims {
			dims += fmt.Sprintf("[%d]", n)
		}
		p.line(fmt.Sprintf("typedef %s %s%s;", TypeString(v.Type), v.Name, dims))
	case *StructDef:
		p.line("struct " + v.Name + " {")
		p.indent++
		for _, m := range v.Members {
			p.line(fmt.Sprintf("%s %s;", TypeString(m.Type), m.Name))
		}
		p.indent--
		p.line("};")
	case *EnumDef:
		p.line(fmt.Sprintf("enum %s { %s };", v.Name, strings.Join(v.Members, ", ")))
	case *ConstDef:
		p.line(fmt.Sprintf("const %s %s = %s;", TypeString(v.Type), v.Name, constString(v.Value)))
	case *ExceptionDef:
		p.line("exception " + v.Name + " {")
		p.indent++
		for _, m := range v.Members {
			p.line(fmt.Sprintf("%s %s;", TypeString(m.Type), m.Name))
		}
		p.indent--
		p.line("};")
	default:
		p.line(fmt.Sprintf("/* unprintable %T */", d))
	}
}

func (p *printer) op(op *Operation) {
	var b strings.Builder
	if op.Oneway {
		b.WriteString("oneway ")
	}
	if op.Result == nil {
		b.WriteString("void ")
	} else {
		b.WriteString(TypeString(op.Result) + " ")
	}
	b.WriteString(op.Name + "(")
	for i, prm := range op.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s %s", prm.Mode, TypeString(prm.Type), prm.Name)
	}
	b.WriteString(")")
	if len(op.Raises) > 0 {
		b.WriteString(" raises (" + strings.Join(op.Raises, ", ") + ")")
	}
	b.WriteString(";")
	p.line(b.String())
}

// TypeString renders a type expression as IDL source.
func TypeString(t Type) string {
	switch v := t.(type) {
	case *Basic:
		return basicNames[v.Kind]
	case *StringType:
		if v.Bound > 0 {
			return fmt.Sprintf("string<%d>", v.Bound)
		}
		return "string"
	case *Sequence:
		if v.Bound > 0 {
			return fmt.Sprintf("sequence<%s, %d>", TypeString(v.Elem), v.Bound)
		}
		return fmt.Sprintf("sequence<%s>", TypeString(v.Elem))
	case *DSequence:
		parts := []string{TypeString(v.Elem)}
		if v.Bound > 0 {
			parts = append(parts, fmt.Sprint(v.Bound))
		}
		if v.Dist != "" {
			parts = append(parts, v.Dist)
		}
		return "dsequence<" + strings.Join(parts, ", ") + ">"
	case *Named:
		return v.Name
	default:
		return fmt.Sprintf("/*%T*/", t)
	}
}

func constString(v any) string {
	switch x := v.(type) {
	case int64:
		return fmt.Sprint(x)
	case float64:
		s := fmt.Sprintf("%g", x)
		// A float constant must lex as a float literal.
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s
	case string:
		return quoteIDL(x)
	case bool:
		if x {
			return "TRUE"
		}
		return "FALSE"
	default:
		return fmt.Sprintf("/*%T*/", v)
	}
}

// quoteIDL renders a string literal with the escapes the lexer
// understands.
func quoteIDL(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}
