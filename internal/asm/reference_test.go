package asm

import (
	"fmt"
	"strings"
	"testing"

	"dcelens/internal/cgen"
	"dcelens/internal/instrument"
	"dcelens/internal/ir"
	"dcelens/internal/lower"
	"dcelens/internal/pipeline"
	"dcelens/internal/token"
)

// referenceEmit is the straightforward fmt-based emitter Emit must match
// byte for byte: one Fprintf per line, map-based mnemonic and directive
// lookups.
func referenceEmit(m *ir.Module) string {
	var sb strings.Builder
	sb.WriteString("\t.text\n")
	for _, f := range m.Funcs {
		if f.External {
			continue
		}
		refFunc(&sb, f)
	}
	if len(m.Globals) > 0 {
		sb.WriteString("\t.data\n")
		for _, g := range m.Globals {
			refGlobal(&sb, g)
		}
	}
	return sb.String()
}

func refGlobal(sb *strings.Builder, g *ir.Global) {
	if !g.Internal {
		fmt.Fprintf(sb, "\t.globl %s\n", g.Name)
	}
	fmt.Fprintf(sb, "%s:\n", g.Name)
	directive := map[int]string{1: ".byte", 2: ".short", 4: ".long", 8: ".quad"}[g.Elem.Size()]
	for i := 0; i < g.Len; i++ {
		var c ir.Const
		if i < len(g.Init) {
			c = g.Init[i]
		}
		if c.IsAddr {
			if c.Global == nil {
				fmt.Fprintf(sb, "\t.quad 0\n")
			} else if c.Off != 0 {
				fmt.Fprintf(sb, "\t.quad %s+%d\n", c.Global.Name, c.Off*int64(c.Global.Elem.Size()))
			} else {
				fmt.Fprintf(sb, "\t.quad %s\n", c.Global.Name)
			}
		} else {
			fmt.Fprintf(sb, "\t%s %d\n", directive, c.Int)
		}
	}
}

func refFunc(sb *strings.Builder, f *ir.Func) {
	if !f.Internal {
		fmt.Fprintf(sb, "\t.globl %s\n", f.Name)
	}
	fmt.Fprintf(sb, "%s:\n", f.Name)
	blocks := f.ReversePostorder()
	label := func(b *ir.Block) string { return fmt.Sprintf(".L%s_%d", f.Name, b.ID) }
	for idx, b := range blocks {
		fmt.Fprintf(sb, "%s:\n", label(b))
		fallsTo := func(t *ir.Block) bool { return idx+1 < len(blocks) && blocks[idx+1] == t }
		for _, in := range b.Instrs {
			refInstr(sb, in, label, fallsTo)
		}
	}
	sb.WriteString("\n")
}

func refReg(in *ir.Instr) string { return fmt.Sprintf("%%v%d", in.ID) }

func refInstr(sb *strings.Builder, in *ir.Instr, label func(*ir.Block) string, fallsTo func(*ir.Block) bool) {
	switch in.Op {
	case ir.OpConst:
		fmt.Fprintf(sb, "\tmov $%d, %s\n", in.IntVal, refReg(in))
	case ir.OpNull:
		fmt.Fprintf(sb, "\txor %s, %s\n", refReg(in), refReg(in))
	case ir.OpGlobalAddr:
		fmt.Fprintf(sb, "\tlea %s(%%rip), %s\n", in.Global.Name, refReg(in))
	case ir.OpParam:
		fmt.Fprintf(sb, "\tmov %s, %s\n", refParamReg(int(in.IntVal)), refReg(in))
	case ir.OpAlloca:
		fmt.Fprintf(sb, "\tlea -%d(%%rbp), %s\n", 8*(in.ID+1), refReg(in))
	case ir.OpPhi:
		fmt.Fprintf(sb, "\t# phi %s\n", refReg(in))
	case ir.OpBin:
		fmt.Fprintf(sb, "\t%s %s, %s, %s\n", refMnemonic(in.BinOp), refReg(in.Args[0]), refReg(in.Args[1]), refReg(in))
	case ir.OpCast:
		fmt.Fprintf(sb, "\tmovsx %s, %s\n", refReg(in.Args[0]), refReg(in))
	case ir.OpGEP:
		fmt.Fprintf(sb, "\tlea (%s,%s,%d), %s\n", refReg(in.Args[0]), refReg(in.Args[1]), in.Typ.Elem.Size(), refReg(in))
	case ir.OpSelect:
		fmt.Fprintf(sb, "\ttest %s, %s\n", refReg(in.Args[0]), refReg(in.Args[0]))
		fmt.Fprintf(sb, "\tcmovnz %s, %s\n", refReg(in.Args[1]), refReg(in))
		fmt.Fprintf(sb, "\tcmovz %s, %s\n", refReg(in.Args[2]), refReg(in))
	case ir.OpLoad:
		fmt.Fprintf(sb, "\tmov (%s), %s\n", refReg(in.Args[0]), refReg(in))
	case ir.OpStore:
		fmt.Fprintf(sb, "\tmov %s, (%s)\n", refReg(in.Args[1]), refReg(in.Args[0]))
	case ir.OpCall:
		for i, a := range in.Args {
			fmt.Fprintf(sb, "\tmov %s, %s\n", refReg(a), refParamReg(i))
		}
		fmt.Fprintf(sb, "\tcall %s\n", in.Callee.Name)
		if in.Typ != nil {
			fmt.Fprintf(sb, "\tmov %%rax, %s\n", refReg(in))
		}
	case ir.OpRet:
		if len(in.Args) > 0 {
			fmt.Fprintf(sb, "\tmov %s, %%rax\n", refReg(in.Args[0]))
		}
		fmt.Fprintf(sb, "\tret\n")
	case ir.OpBr:
		if !fallsTo(in.Edges[0]) {
			fmt.Fprintf(sb, "\tjmp %s\n", label(in.Edges[0]))
		}
	case ir.OpCondBr:
		fmt.Fprintf(sb, "\ttest %s, %s\n", refReg(in.Args[0]), refReg(in.Args[0]))
		fmt.Fprintf(sb, "\tjnz %s\n", label(in.Edges[0]))
		if !fallsTo(in.Edges[1]) {
			fmt.Fprintf(sb, "\tjmp %s\n", label(in.Edges[1]))
		}
	}
}

func refParamReg(i int) string {
	regs := []string{"%rdi", "%rsi", "%rdx", "%rcx", "%r8", "%r9"}
	if i < len(regs) {
		return regs[i]
	}
	return fmt.Sprintf("%d(%%rsp)", 8*(i-len(regs)))
}

func refMnemonic(op token.Kind) string {
	names := map[token.Kind]string{
		token.Plus: "add", token.Minus: "sub", token.Star: "imul",
		token.Slash: "idiv", token.Percent: "irem",
		token.Amp: "and", token.Pipe: "or", token.Caret: "xor",
		token.Shl: "shl", token.Shr: "shr",
		token.EqEq: "sete", token.NotEq: "setne",
		token.Lt: "setl", token.Gt: "setg", token.Le: "setle", token.Ge: "setge",
	}
	if n, ok := names[op]; ok {
		return n
	}
	return "op"
}

// compiledModules lowers the instrumented program of seed once raw and
// once per default configuration (both personalities at every level),
// optimizing each copy; the raw module comes first.
func compiledModules(tb testing.TB, seed int64) (names []string, mods []*ir.Module) {
	tb.Helper()
	ins, err := instrument.Instrument(cgen.Generate(cgen.DefaultConfig(seed)), instrument.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	raw, err := lower.Lower(ins.Prog)
	if err != nil {
		tb.Fatal(err)
	}
	names, mods = append(names, "lowered"), append(mods, raw)
	for _, p := range []pipeline.Personality{pipeline.GCC, pipeline.LLVM} {
		for _, lvl := range pipeline.Levels {
			cfg := pipeline.New(p, lvl)
			m, err := lower.Lower(ins.Prog)
			if err != nil {
				tb.Fatal(err)
			}
			if err := cfg.CompileObserved(m, nil); err != nil {
				tb.Fatalf("seed %d %s: %v", seed, cfg.Name(), err)
			}
			names, mods = append(names, cfg.Name()), append(mods, m)
		}
	}
	return names, mods
}

// TestEmitMatchesReference compares Emit with the reference emitter on the
// raw lowered module and on every configuration's optimized module of 40
// generated programs.
func TestEmitMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		names, mods := compiledModules(t, seed)
		for i, m := range mods {
			if got, want := Emit(m), referenceEmit(m); got != want {
				t.Errorf("seed %d %s: Emit differs from the reference at byte %d",
					seed, names[i], firstDiff(got, want))
			}
		}
	}
}

// TestEmitOperandShapes covers listing shapes generated programs rarely
// reach: stack-passed call arguments, a null pointer initializer, and an
// operator with no mnemonic.
func TestEmitOperandShapes(t *testing.T) {
	m := lowerSource(t, `
void sink(int a, int b, int c, int d, int e, int f, int g, int h);
int *q;
int main(void) {
  int x = 3;
  sink(x + 1, 2, 3, 4, 5, 6, 7, 8);
  return 0;
}`)
	m.LookupGlobal("q").Init = []ir.Const{{IsAddr: true}} // null address
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpBin {
					in.BinOp = token.EOF
				}
			}
		}
	}
	got, want := Emit(m), referenceEmit(m)
	if got != want {
		t.Fatalf("Emit differs from the reference at byte %d:\n%s", firstDiff(got, want), got)
	}
	for _, shape := range []string{"8(%rsp)", "\top ", "q:\n\t.quad 0\n"} {
		if !strings.Contains(got, shape) {
			t.Errorf("%q missing:\n%s", shape, got)
		}
	}
}

func firstDiff(a, b string) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// BenchmarkEmit renders the seed-4242 program's modules, raw and at every
// default configuration, once per iteration.
func BenchmarkEmit(b *testing.B) {
	_, mods := compiledModules(b, 4242)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range mods {
			emitSink = Emit(m)
		}
	}
}

var emitSink string
