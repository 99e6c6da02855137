package idl

import (
	"fmt"
	"strings"
)

// Spec is a parsed IDL specification (one source file).
type Spec struct {
	Defs []Def
}

// Def is a top-level or module-level definition.
type Def interface {
	DefName() string
	DefPos() Pos
}

// Module groups definitions under a scope.
type Module struct {
	Name string
	Pos  Pos
	Defs []Def
}

// DefName implements Def.
func (m *Module) DefName() string { return m.Name }

// DefPos implements Def.
func (m *Module) DefPos() Pos { return m.Pos }

// Interface declares an object interface.
type Interface struct {
	Name  string
	Pos   Pos
	Bases []string // scoped names of inherited interfaces
	Ops   []*Operation
	Attrs []*Attribute
	Decls []Def // nested typedefs/consts
}

// DefName implements Def.
func (i *Interface) DefName() string { return i.Name }

// DefPos implements Def.
func (i *Interface) DefPos() Pos { return i.Pos }

// ParamMode is an operation parameter's passing mode.
type ParamMode int

// Parameter modes.
const (
	ModeIn ParamMode = iota
	ModeOut
	ModeInOut
)

func (m ParamMode) String() string {
	switch m {
	case ModeIn:
		return "in"
	case ModeOut:
		return "out"
	case ModeInOut:
		return "inout"
	default:
		return fmt.Sprintf("ParamMode(%d)", int(m))
	}
}

// Param is one operation parameter.
type Param struct {
	Mode ParamMode
	Type Type
	Name string
	Pos  Pos
}

// Operation is one interface operation.
type Operation struct {
	Name   string
	Pos    Pos
	Oneway bool
	Result Type // nil for void
	Params []*Param
	Raises []string
}

// Attribute is an interface attribute; it maps to a _get_<name>
// operation and, unless readonly, a _set_<name> operation.
type Attribute struct {
	Readonly bool
	Type     Type
	Name     string
	Pos      Pos
}

// Ops returns the operations the attribute desugars to.
func (a *Attribute) Ops() []*Operation {
	get := &Operation{
		Name:   "_get_" + a.Name,
		Pos:    a.Pos,
		Result: a.Type,
	}
	if a.Readonly {
		return []*Operation{get}
	}
	set := &Operation{
		Name: "_set_" + a.Name,
		Pos:  a.Pos,
		Params: []*Param{
			{Mode: ModeIn, Type: a.Type, Name: "value", Pos: a.Pos},
		},
	}
	return []*Operation{get, set}
}

// Typedef introduces a named alias.
type Typedef struct {
	Name string
	Pos  Pos
	Type Type
	// ArrayDims holds trailing array dimensions from the declarator
	// (typedef long grid[8][8]).
	ArrayDims []int64
}

// DefName implements Def.
func (t *Typedef) DefName() string { return t.Name }

// DefPos implements Def.
func (t *Typedef) DefPos() Pos { return t.Pos }

// StructDef declares a struct.
type StructDef struct {
	Name    string
	Pos     Pos
	Members []StructMember
}

// StructMember is one struct field.
type StructMember struct {
	Type Type
	Name string
	Pos  Pos
}

// DefName implements Def.
func (s *StructDef) DefName() string { return s.Name }

// DefPos implements Def.
func (s *StructDef) DefPos() Pos { return s.Pos }

// EnumDef declares an enum.
type EnumDef struct {
	Name    string
	Pos     Pos
	Members []string
}

// DefName implements Def.
func (e *EnumDef) DefName() string { return e.Name }

// DefPos implements Def.
func (e *EnumDef) DefPos() Pos { return e.Pos }

// ConstDef declares a constant.
type ConstDef struct {
	Name string
	Pos  Pos
	Type Type
	// Value is the evaluated literal: int64, float64, string or bool.
	Value any
}

// DefName implements Def.
func (c *ConstDef) DefName() string { return c.Name }

// DefPos implements Def.
func (c *ConstDef) DefPos() Pos { return c.Pos }

// ExceptionDef declares a user exception.
type ExceptionDef struct {
	Name    string
	Pos     Pos
	Members []StructMember
}

// DefName implements Def.
func (e *ExceptionDef) DefName() string { return e.Name }

// DefPos implements Def.
func (e *ExceptionDef) DefPos() Pos { return e.Pos }

// Type is an IDL type expression.
type Type interface {
	TypeName() string
}

// BasicKind enumerates IDL basic types.
type BasicKind int

// Basic type kinds.
const (
	Short BasicKind = iota
	UShort
	Long
	ULong
	LongLong
	ULongLong
	Float
	Double
	Boolean
	Char
	Octet
)

var basicNames = map[BasicKind]string{
	Short: "short", UShort: "unsigned short",
	Long: "long", ULong: "unsigned long",
	LongLong: "long long", ULongLong: "unsigned long long",
	Float: "float", Double: "double",
	Boolean: "boolean", Char: "char", Octet: "octet",
}

// Basic is a primitive type.
type Basic struct{ Kind BasicKind }

// TypeName implements Type.
func (b *Basic) TypeName() string { return basicNames[b.Kind] }

// StringType is the IDL string (optionally bounded).
type StringType struct{ Bound int64 }

// TypeName implements Type.
func (s *StringType) TypeName() string {
	if s.Bound > 0 {
		return fmt.Sprintf("string<%d>", s.Bound)
	}
	return "string"
}

// Sequence is a CORBA sequence<T[, bound]>.
type Sequence struct {
	Elem  Type
	Bound int64 // 0 = unbounded
}

// TypeName implements Type.
func (s *Sequence) TypeName() string {
	if s.Bound > 0 {
		return fmt.Sprintf("sequence<%s,%d>", s.Elem.TypeName(), s.Bound)
	}
	return fmt.Sprintf("sequence<%s>", s.Elem.TypeName())
}

// DSequence is the PARDIS distributed sequence
// dsequence<T[, bound][, distribution]>.
type DSequence struct {
	Elem  Type
	Bound int64 // 0 = unbounded
	// Dist is the distribution name: "BLOCK" (default) or an
	// identifier resolved at run time; empty means unspecified,
	// allowing client and server to trade distributions (§2.2).
	Dist string
}

// TypeName implements Type.
func (s *DSequence) TypeName() string {
	var b strings.Builder
	fmt.Fprintf(&b, "dsequence<%s", s.Elem.TypeName())
	if s.Bound > 0 {
		fmt.Fprintf(&b, ",%d", s.Bound)
	}
	if s.Dist != "" {
		fmt.Fprintf(&b, ",%s", s.Dist)
	}
	b.WriteString(">")
	return b.String()
}

// Named is a reference to a declared type (typedef, struct, enum,
// interface), possibly scoped (A::B).
type Named struct {
	Name string // "::"-joined scoped name as written
	Pos  Pos
	// Target is filled by semantic analysis.
	Target Def
}

// TypeName implements Type.
func (n *Named) TypeName() string { return n.Name }
