// Package token defines the lexical tokens of MiniC, the C-like language
// used throughout dcelens, together with source positions.
//
// MiniC is the input language of the reproduction: a deterministic,
// UB-free C subset rich enough that discovering dead code requires real
// compiler analyses (constant propagation, alias analysis, range analysis,
// inlining). See DESIGN.md for the language rationale.
package token

import "fmt"

// Kind identifies the lexical class of a token. It is a byte because an
// ir.Instr carries one as its binary operator.
type Kind uint8

// Token kinds. The order within operator groups matters only for
// readability; precedence is defined by the parser.
const (
	Invalid Kind = iota
	EOF

	// Literals and identifiers.
	Ident  // main, foo_3
	IntLit // 123, 0x7f

	// Keywords.
	KwVoid
	KwChar
	KwShort
	KwInt
	KwLong
	KwSigned
	KwUnsigned
	KwStatic
	KwExtern
	KwIf
	KwElse
	KwFor
	KwWhile
	KwDo
	KwReturn
	KwBreak
	KwContinue
	KwSwitch
	KwCase
	KwDefault
	KwGoto // reserved, rejected by the parser with a clear error

	// Punctuation.
	LParen    // (
	RParen    // )
	LBrace    // {
	RBrace    // }
	LBracket  // [
	RBracket  // ]
	Comma     // ,
	Semicolon // ;
	Colon     // :
	Question  // ?

	// Operators.
	Assign     // =
	Plus       // +
	Minus      // -
	Star       // *
	Slash      // /
	Percent    // %
	Amp        // &
	Pipe       // |
	Caret      // ^
	Tilde      // ~
	Not        // !
	Shl        // <<
	Shr        // >>
	Lt         // <
	Gt         // >
	Le         // <=
	Ge         // >=
	EqEq       // ==
	NotEq      // !=
	AndAnd     // &&
	OrOr       // ||
	PlusPlus   // ++
	MinusMinus // --

	// Compound assignment.
	PlusAssign    // +=
	MinusAssign   // -=
	StarAssign    // *=
	SlashAssign   // /=
	PercentAssign // %=
	AmpAssign     // &=
	PipeAssign    // |=
	CaretAssign   // ^=
	ShlAssign     // <<=
	ShrAssign     // >>=
)

var kindNames = map[Kind]string{
	Invalid:    "invalid",
	EOF:        "EOF",
	Ident:      "identifier",
	IntLit:     "integer literal",
	KwVoid:     "void",
	KwChar:     "char",
	KwShort:    "short",
	KwInt:      "int",
	KwLong:     "long",
	KwSigned:   "signed",
	KwUnsigned: "unsigned",
	KwStatic:   "static",
	KwExtern:   "extern",
	KwIf:       "if",
	KwElse:     "else",
	KwFor:      "for",
	KwWhile:    "while",
	KwDo:       "do",
	KwReturn:   "return",
	KwBreak:    "break",
	KwContinue: "continue",
	KwSwitch:   "switch",
	KwCase:     "case",
	KwDefault:  "default",
	KwGoto:     "goto",

	LParen:    "(",
	RParen:    ")",
	LBrace:    "{",
	RBrace:    "}",
	LBracket:  "[",
	RBracket:  "]",
	Comma:     ",",
	Semicolon: ";",
	Colon:     ":",
	Question:  "?",

	Assign:     "=",
	Plus:       "+",
	Minus:      "-",
	Star:       "*",
	Slash:      "/",
	Percent:    "%",
	Amp:        "&",
	Pipe:       "|",
	Caret:      "^",
	Tilde:      "~",
	Not:        "!",
	Shl:        "<<",
	Shr:        ">>",
	Lt:         "<",
	Gt:         ">",
	Le:         "<=",
	Ge:         ">=",
	EqEq:       "==",
	NotEq:      "!=",
	AndAnd:     "&&",
	OrOr:       "||",
	PlusPlus:   "++",
	MinusMinus: "--",

	PlusAssign:    "+=",
	MinusAssign:   "-=",
	StarAssign:    "*=",
	SlashAssign:   "/=",
	PercentAssign: "%=",
	AmpAssign:     "&=",
	PipeAssign:    "|=",
	CaretAssign:   "^=",
	ShlAssign:     "<<=",
	ShrAssign:     ">>=",
}

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Keywords maps keyword spellings to their token kinds.
var Keywords = map[string]Kind{
	"void":     KwVoid,
	"char":     KwChar,
	"short":    KwShort,
	"int":      KwInt,
	"long":     KwLong,
	"signed":   KwSigned,
	"unsigned": KwUnsigned,
	"static":   KwStatic,
	"extern":   KwExtern,
	"if":       KwIf,
	"else":     KwElse,
	"for":      KwFor,
	"while":    KwWhile,
	"do":       KwDo,
	"return":   KwReturn,
	"break":    KwBreak,
	"continue": KwContinue,
	"switch":   KwSwitch,
	"case":     KwCase,
	"default":  KwDefault,
	"goto":     KwGoto,
}

// IsAssignOp reports whether k is = or a compound-assignment operator.
func (k Kind) IsAssignOp() bool {
	switch k {
	case Assign, PlusAssign, MinusAssign, StarAssign, SlashAssign,
		PercentAssign, AmpAssign, PipeAssign, CaretAssign, ShlAssign, ShrAssign:
		return true
	}
	return false
}

// BaseOf returns the arithmetic operator underlying a compound assignment,
// e.g. BaseOf(PlusAssign) == Plus. It returns Invalid for plain Assign and
// for non-assignment kinds.
func (k Kind) BaseOf() Kind {
	switch k {
	case PlusAssign:
		return Plus
	case MinusAssign:
		return Minus
	case StarAssign:
		return Star
	case SlashAssign:
		return Slash
	case PercentAssign:
		return Percent
	case AmpAssign:
		return Amp
	case PipeAssign:
		return Pipe
	case CaretAssign:
		return Caret
	case ShlAssign:
		return Shl
	case ShrAssign:
		return Shr
	}
	return Invalid
}

// Pos is a source position: 1-based line and column. The zero Pos is
// "no position".
type Pos struct {
	Line int
	Col  int
}

// IsValid reports whether p carries an actual position.
func (p Pos) IsValid() bool { return p.Line > 0 }

func (p Pos) String() string {
	if !p.IsValid() {
		return "-"
	}
	return fmt.Sprintf("%d:%d", p.Line, p.Col)
}

// Token is a single lexical token with its source position and spelling.
type Token struct {
	Kind Kind
	Pos  Pos
	Text string // original spelling; set for Ident and IntLit
}

func (t Token) String() string {
	switch t.Kind {
	case Ident, IntLit:
		return t.Text
	default:
		return t.Kind.String()
	}
}
