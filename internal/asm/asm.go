// Package asm emits textual pseudo-assembly from the IR and scans it for
// surviving optimization markers.
//
// The paper's oracle observes exactly one thing: whether `call DCEMarkerN`
// appears in the compiled output (§3.1). This backend therefore does not
// allocate physical registers or schedule instructions; it produces an
// x86-flavoured listing with virtual registers in which every surviving
// call appears as a `call <name>` line, every global as a data-section
// symbol, and every block as a local label. Unreachable blocks are not
// emitted (no code generator emits them), so -O0's trivial frontend folding
// already eliminates some markers, as the paper measures.
package asm

import (
	"sort"
	"strconv"
	"strings"

	"dcelens/internal/ir"
	"dcelens/internal/token"
)

// Emit renders the module as pseudo-assembly. It runs once per compile
// unit, so the listing is appended into one byte slice, sized up front from
// the instruction and global counts, with numbers formatted by strconv.
func Emit(m *ir.Module) string {
	n := 16
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			n += 24 + 24*len(b.Instrs)
		}
	}
	for _, g := range m.Globals {
		n += 16 + 12*g.Len
	}
	out := make([]byte, 0, n)
	out = append(out, "\t.text\n"...)
	for _, f := range m.Funcs {
		if !f.External {
			out = appendFunc(out, f)
		}
	}
	if len(m.Globals) > 0 {
		out = append(out, "\t.data\n"...)
		for _, g := range m.Globals {
			out = appendGlobal(out, g)
		}
	}
	return string(out)
}

func appendGlobal(out []byte, g *ir.Global) []byte {
	if !g.Internal {
		out = append(append(append(out, "\t.globl "...), g.Name...), '\n')
	}
	out = append(append(out, g.Name...), ":\n"...)
	directive := dataDirective(g.Elem.Size())
	for i := 0; i < g.Len; i++ {
		var c ir.Const
		if i < len(g.Init) {
			c = g.Init[i]
		}
		switch {
		case !c.IsAddr:
			out = append(append(append(out, '\t'), directive...), ' ')
			out = strconv.AppendInt(out, c.Int, 10)
		case c.Global == nil:
			out = append(out, "\t.quad 0"...)
		default:
			out = append(append(out, "\t.quad "...), c.Global.Name...)
			if c.Off != 0 {
				out = strconv.AppendInt(append(out, '+'), c.Off*int64(c.Global.Elem.Size()), 10)
			}
		}
		out = append(out, '\n')
	}
	return out
}

// dataDirective names the data directive of an element size.
func dataDirective(size int) string {
	switch size {
	case 1:
		return ".byte"
	case 2:
		return ".short"
	case 4:
		return ".long"
	case 8:
		return ".quad"
	}
	return ""
}

func appendFunc(out []byte, f *ir.Func) []byte {
	if !f.Internal {
		out = append(append(append(out, "\t.globl "...), f.Name...), '\n')
	}
	out = append(append(out, f.Name...), ":\n"...)

	// Deterministic code layout: reverse postorder of reachable blocks.
	blocks := f.ReversePostorder()
	for idx, b := range blocks {
		out = append(appendLabel(out, f.Name, b), ":\n"...)
		var next *ir.Block // the fallthrough block, whose jumps are elided
		if idx+1 < len(blocks) {
			next = blocks[idx+1]
		}
		for _, in := range b.Instrs {
			out = appendInstr(out, f.Name, in, next)
		}
	}
	return append(out, '\n')
}

// appendLabel appends the local label of block b of function fn,
// .L<fn>_<block ID>.
func appendLabel(out []byte, fn string, b *ir.Block) []byte {
	out = append(append(append(out, ".L"...), fn...), '_')
	return strconv.AppendInt(out, int64(b.ID), 10)
}

// appendReg appends in's virtual register, %v<value ID>.
func appendReg(out []byte, in *ir.Instr) []byte {
	return strconv.AppendInt(append(out, "%v"...), int64(in.ID), 10)
}

// appendOp appends "\t<op> <x>, <y>", a line without its newline.
func appendOp(out []byte, op string, x, y *ir.Instr) []byte {
	out = append(append(append(out, '\t'), op...), ' ')
	return appendReg(append(appendReg(out, x), ", "...), y)
}

// appendInstr appends the lines of in, an instruction of function fn
// whose block falls through to next.
func appendInstr(out []byte, fn string, in *ir.Instr, next *ir.Block) []byte {
	switch in.Op {
	case ir.OpConst:
		out = strconv.AppendInt(append(out, "\tmov $"...), in.IntVal, 10)
		out = appendReg(append(out, ", "...), in)
	case ir.OpNull:
		out = appendOp(out, "xor", in, in)
	case ir.OpGlobalAddr:
		out = append(append(append(out, "\tlea "...), in.Global.Name...), "(%rip), "...)
		out = appendReg(out, in)
	case ir.OpParam:
		out = appendParamReg(append(out, "\tmov "...), int(in.IntVal))
		out = appendReg(append(out, ", "...), in)
	case ir.OpAlloca:
		out = strconv.AppendInt(append(out, "\tlea -"...), 8*(int64(in.ID)+1), 10)
		out = appendReg(append(out, "(%rbp), "...), in)
	case ir.OpPhi:
		// Phis are resolved by the (virtual) register copies implied on
		// each incoming edge; document the join for readability.
		out = appendReg(append(out, "\t# phi "...), in)
	case ir.OpBin:
		out = appendOp(out, mnemonic(in.BinOp), in.Args[0], in.Args[1])
		out = appendReg(append(out, ", "...), in)
	case ir.OpCast:
		out = appendOp(out, "movsx", in.Args[0], in)
	case ir.OpGEP:
		out = appendReg(append(out, "\tlea ("...), in.Args[0])
		out = appendReg(append(out, ','), in.Args[1])
		out = strconv.AppendInt(append(out, ','), int64(in.Typ.Elem.Size()), 10)
		out = appendReg(append(out, "), "...), in)
	case ir.OpSelect:
		out = append(appendOp(out, "test", in.Args[0], in.Args[0]), '\n')
		out = append(appendOp(out, "cmovnz", in.Args[1], in), '\n')
		out = appendOp(out, "cmovz", in.Args[2], in)
	case ir.OpLoad:
		out = appendReg(append(out, "\tmov ("...), in.Args[0])
		out = appendReg(append(out, "), "...), in)
	case ir.OpStore:
		out = appendReg(append(out, "\tmov "...), in.Args[1])
		out = append(appendReg(append(out, ", ("...), in.Args[0]), ')')
	case ir.OpCall:
		for i, a := range in.Args {
			out = appendReg(append(out, "\tmov "...), a)
			out = append(appendParamReg(append(out, ", "...), i), '\n')
		}
		out = append(append(out, "\tcall "...), in.Callee.Name...)
		if in.Typ != nil {
			out = appendReg(append(out, "\n\tmov %rax, "...), in)
		}
	case ir.OpRet:
		if len(in.Args) > 0 {
			out = append(appendReg(append(out, "\tmov "...), in.Args[0]), ", %rax\n"...)
		}
		out = append(out, "\tret"...)
	case ir.OpBr:
		// Fallthrough elision when the target is the next emitted block.
		if in.Edges[0] == next {
			return out
		}
		out = appendLabel(append(out, "\tjmp "...), fn, in.Edges[0])
	case ir.OpCondBr:
		out = append(appendOp(out, "test", in.Args[0], in.Args[0]), '\n')
		out = appendLabel(append(out, "\tjnz "...), fn, in.Edges[0])
		if in.Edges[1] != next {
			out = appendLabel(append(out, "\n\tjmp "...), fn, in.Edges[1])
		}
	default:
		return out
	}
	return append(out, '\n')
}

var paramRegs = [...]string{"%rdi", "%rsi", "%rdx", "%rcx", "%r8", "%r9"}

// appendParamReg appends the location of argument i: a register for the
// first six, a stack slot after them.
func appendParamReg(out []byte, i int) []byte {
	if i < len(paramRegs) {
		return append(out, paramRegs[i]...)
	}
	return append(strconv.AppendInt(out, int64(8*(i-len(paramRegs))), 10), "(%rsp)"...)
}

// mnemonics names the instruction of each binary operator; an operator
// with no entry prints as "op".
var mnemonics = [...]string{
	token.Plus: "add", token.Minus: "sub", token.Star: "imul",
	token.Slash: "idiv", token.Percent: "irem",
	token.Amp: "and", token.Pipe: "or", token.Caret: "xor",
	token.Shl: "shl", token.Shr: "shr",
	token.EqEq: "sete", token.NotEq: "setne",
	token.Lt: "setl", token.Gt: "setg", token.Le: "setle", token.Ge: "setge",
}

func mnemonic(op token.Kind) string {
	if uint(op) < uint(len(mnemonics)) && mnemonics[op] != "" {
		return mnemonics[op]
	}
	return "op"
}

// ---------------------------------------------------------------------------
// Marker scanning — the oracle's observation (paper step ③).

// Calls extracts the multiset of callee names appearing as call
// instructions in the assembly.
func Calls(asmText string) map[string]int {
	out := map[string]int{}
	for _, line := range strings.Split(asmText, "\n") {
		line = strings.TrimSpace(line)
		if name, ok := strings.CutPrefix(line, "call "); ok {
			out[strings.TrimSpace(name)] = out[strings.TrimSpace(name)] + 1
		}
	}
	return out
}

// SurvivingMarkers returns the marker names (per isMarker) present in the
// assembly, sorted.
func SurvivingMarkers(asmText string, isMarker func(string) bool) []string {
	var out []string
	for name := range Calls(asmText) {
		if isMarker(name) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Metrics are Barany-style static features of the generated code (related
// work in the paper §5: differential testing on assembly features). They
// support the comparison experiments but are not part of the DCE oracle.
type Metrics struct {
	Instructions int
	Calls        int
	Loads        int
	Stores       int
	Branches     int
}

// Measure computes static metrics of the assembly.
func Measure(asmText string) Metrics {
	var mt Metrics
	for _, line := range strings.Split(asmText, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, ".") || strings.HasPrefix(line, "#") ||
			strings.HasSuffix(line, ":") {
			continue
		}
		mt.Instructions++
		switch {
		case strings.HasPrefix(line, "call"):
			mt.Calls++
		case strings.HasPrefix(line, "jmp"), strings.HasPrefix(line, "jnz"), strings.HasPrefix(line, "jz"):
			mt.Branches++
		case strings.HasPrefix(line, "mov ("):
			mt.Loads++
		case strings.HasPrefix(line, "mov %") && strings.Contains(line, ", ("):
			mt.Stores++
		}
	}
	return mt
}
