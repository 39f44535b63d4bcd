// Package types defines the MiniC type system.
//
// MiniC has void, eight integer types (signed and unsigned 8/16/32/64-bit),
// pointers, one-dimensional arrays, and function types. All integer
// arithmetic wraps (two's complement); shifts mask their amount by the bit
// width minus one; division and remainder are total (x/0 == 0, x%0 == x).
// These rules remove all C undefined behaviour so that every MiniC program
// has exactly one meaning — a prerequisite for using execution as the
// ground-truth oracle for dead code (see DESIGN.md).
package types

import "fmt"

// Kind discriminates the type structure.
type Kind int

const (
	Invalid Kind = iota
	Void
	I8
	U8
	I16
	U16
	I32
	U32
	I64
	U64
	Pointer
	Array
	Func
)

// Type describes a MiniC type. Scalar types are interned singletons;
// compare them with ==. Composite types (Pointer, Array, Func) are
// structural; compare them with Identical.
type Type struct {
	Kind   Kind
	Elem   *Type   // Pointer/Array element type, Func return type
	Len    int     // Array length
	Params []*Type // Func parameter types
}

// Interned scalar types.
var (
	VoidType = &Type{Kind: Void}
	I8Type   = &Type{Kind: I8}
	U8Type   = &Type{Kind: U8}
	I16Type  = &Type{Kind: I16}
	U16Type  = &Type{Kind: U16}
	I32Type  = &Type{Kind: I32}
	U32Type  = &Type{Kind: U32}
	I64Type  = &Type{Kind: I64}
	U64Type  = &Type{Kind: U64}
)

// IntTypes lists the integer types from narrowest to widest,
// signed before unsigned at each width.
var IntTypes = []*Type{I8Type, U8Type, I16Type, U16Type, I32Type, U32Type, I64Type, U64Type}

// PointerTo returns the type *elem.
func PointerTo(elem *Type) *Type { return &Type{Kind: Pointer, Elem: elem} }

// ArrayOf returns the type elem[n].
func ArrayOf(elem *Type, n int) *Type { return &Type{Kind: Array, Elem: elem, Len: n} }

// FuncOf returns a function type with the given return and parameter types.
func FuncOf(ret *Type, params []*Type) *Type {
	return &Type{Kind: Func, Elem: ret, Params: params}
}

// IsInteger reports whether t is one of the eight integer types.
func (t *Type) IsInteger() bool {
	switch t.Kind {
	case I8, U8, I16, U16, I32, U32, I64, U64:
		return true
	}
	return false
}

// IsSigned reports whether t is a signed integer type.
func (t *Type) IsSigned() bool {
	switch t.Kind {
	case I8, I16, I32, I64:
		return true
	}
	return false
}

// IsPointer reports whether t is a pointer type.
func (t *Type) IsPointer() bool { return t.Kind == Pointer }

// IsScalar reports whether t is an integer or pointer type
// (a value that fits in a register).
func (t *Type) IsScalar() bool { return t.IsInteger() || t.IsPointer() }

// Bits returns the width of an integer type in bits, or 64 for pointers
// (the MiniC target is a 64-bit machine). It panics for other kinds.
func (t *Type) Bits() int {
	switch t.Kind {
	case I8, U8:
		return 8
	case I16, U16:
		return 16
	case I32, U32:
		return 32
	case I64, U64, Pointer:
		return 64
	}
	panic(fmt.Sprintf("types: Bits on %v", t.Kind))
}

// Size returns the size of t in bytes. Arrays are element size times length.
func (t *Type) Size() int {
	switch t.Kind {
	case Void:
		return 0
	case Array:
		return t.Elem.Size() * t.Len
	case Func:
		panic("types: Size on function type")
	default:
		return t.Bits() / 8
	}
}

// Unsigned returns the unsigned integer type of the same width.
func (t *Type) Unsigned() *Type {
	switch t.Kind {
	case I8, U8:
		return U8Type
	case I16, U16:
		return U16Type
	case I32, U32:
		return U32Type
	case I64, U64:
		return U64Type
	}
	panic(fmt.Sprintf("types: Unsigned on %v", t.Kind))
}

// Signed returns the signed integer type of the same width.
func (t *Type) Signed() *Type {
	switch t.Kind {
	case I8, U8:
		return I8Type
	case I16, U16:
		return I16Type
	case I32, U32:
		return I32Type
	case I64, U64:
		return I64Type
	}
	panic(fmt.Sprintf("types: Signed on %v", t.Kind))
}

// Identical reports structural type identity.
func Identical(a, b *Type) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case Pointer:
		return Identical(a.Elem, b.Elem)
	case Array:
		return a.Len == b.Len && Identical(a.Elem, b.Elem)
	case Func:
		if !Identical(a.Elem, b.Elem) || len(a.Params) != len(b.Params) {
			return false
		}
		for i := range a.Params {
			if !Identical(a.Params[i], b.Params[i]) {
				return false
			}
		}
		return true
	default:
		return true // scalar kinds are equal by Kind
	}
}

// Promote applies the usual arithmetic conversions of MiniC: both operands
// are converted to the wider type; on equal width unsigned wins; everything
// narrower than 32 bits is first promoted to I32 (C integer promotion).
func Promote(a, b *Type) *Type {
	pa, pb := promoteOne(a), promoteOne(b)
	if pa.Bits() > pb.Bits() {
		return pa
	}
	if pb.Bits() > pa.Bits() {
		return pb
	}
	if !pa.IsSigned() {
		return pa
	}
	return pb
}

// PromoteOne applies C integer promotion to a single operand type.
func PromoteOne(t *Type) *Type { return promoteOne(t) }

func promoteOne(t *Type) *Type {
	if t.IsInteger() && t.Bits() < 32 {
		return I32Type
	}
	return t
}

// CSpelling returns the MiniC source spelling of t. char is signed in MiniC.
func (t *Type) CSpelling() string {
	switch t.Kind {
	case Void:
		return "void"
	case I8:
		return "char"
	case U8:
		return "unsigned char"
	case I16:
		return "short"
	case U16:
		return "unsigned short"
	case I32:
		return "int"
	case U32:
		return "unsigned int"
	case I64:
		return "long"
	case U64:
		return "unsigned long"
	case Pointer:
		return t.Elem.CSpelling() + " *"
	case Array:
		return fmt.Sprintf("%s[%d]", t.Elem.CSpelling(), t.Len)
	case Func:
		s := t.Elem.CSpelling() + " (*)("
		for i, p := range t.Params {
			if i > 0 {
				s += ", "
			}
			s += p.CSpelling()
		}
		return s + ")"
	}
	return "<invalid>"
}

func (t *Type) String() string { return t.CSpelling() }

// WrapValue truncates v to t's width and re-extends it according to t's
// signedness, yielding the canonical int64 representation of a value of
// type t. Pointers are not wrapped here.
func (t *Type) WrapValue(v int64) int64 {
	switch t.Kind {
	case I8:
		return int64(int8(v))
	case U8:
		return int64(uint8(v))
	case I16:
		return int64(int16(v))
	case U16:
		return int64(uint16(v))
	case I32:
		return int64(int32(v))
	case U32:
		return int64(uint32(v))
	case I64, U64, Pointer:
		return v
	}
	panic(fmt.Sprintf("types: WrapValue on %v", t.Kind))
}
