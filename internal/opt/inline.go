package opt

import (
	"fmt"

	"dcelens/internal/ir"
	"dcelens/internal/types"
)

// Inline substitutes the bodies of small internal functions at their call
// sites. Inlining is what turns the interprocedural examples of the paper
// into intraprocedural ones that SCCP/GVN can finish off; several of the
// paper's bisected regressions live in inlining heuristics (Table 4).
var Inline = Pass{Name: "inline", Run: inline, Reads: func(o Options) Options {
	return Options{InlineBudget: o.InlineBudget}
}}

func inline(m *ir.Module, o Options, inv *Invalidation) bool {
	if o.InlineBudget <= 0 {
		return false
	}
	recursive := recursiveFuncs(m)
	cm := clonePool.Get()
	defer putCloneMap(cm)
	changed := false
	for _, caller := range m.Funcs {
		if caller.External {
			continue
		}
		grown := 0
		// Snapshot call sites; inlining rewrites blocks under us.
		for {
			call := findInlinableCall(caller, o, recursive)
			if call == nil {
				break
			}
			if grown > 4*o.InlineBudget {
				if o.RemarksOn() {
					o.missed(caller, "call "+call.Callee.Name, ReasonSizeThreshold,
						fmt.Sprintf("caller growth cap reached (%d > %d)", grown, 4*o.InlineBudget))
				}
				break
			}
			call.Callee.WasInlined = true
			inlineCall(caller, call, cm)
			grown += funcSize(call.Callee)
			changed = true
			o.applied()
			// Splicing mutates only the caller; callee bodies are read,
			// never written, so callers are the precise invalidation set.
			inv.Func(caller)
		}
	}
	return changed
}

func funcSize(f *ir.Func) int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// recursiveFuncs returns functions that participate in call-graph cycles.
func recursiveFuncs(m *ir.Module) map[*ir.Func]bool {
	// Simple transitive-reachability check per function.
	callees := map[*ir.Func][]*ir.Func{}
	for _, f := range m.Funcs {
		seen := map[*ir.Func]bool{}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall && in.Callee != nil && !in.Callee.External && !seen[in.Callee] {
					seen[in.Callee] = true
					callees[f] = append(callees[f], in.Callee)
				}
			}
		}
	}
	rec := map[*ir.Func]bool{}
	for _, f := range m.Funcs {
		seen := map[*ir.Func]bool{}
		var reach func(g *ir.Func) bool
		reach = func(g *ir.Func) bool {
			for _, c := range callees[g] {
				if c == f {
					return true
				}
				if !seen[c] {
					seen[c] = true
					if reach(c) {
						return true
					}
				}
			}
			return false
		}
		if reach(f) {
			rec[f] = true
		}
	}
	return rec
}

func findInlinableCall(caller *ir.Func, o Options, recursive map[*ir.Func]bool) *ir.Instr {
	for _, b := range caller.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpCall || in.Callee == nil {
				continue
			}
			c := in.Callee
			if c.External || len(c.Blocks) == 0 {
				continue
			}
			if c == caller || recursive[c] {
				if o.RemarksOn() {
					o.missed(caller, "call "+c.Name, ReasonRecursive,
						"the callee participates in a call-graph cycle")
				}
				continue
			}
			if size := funcSize(c); size > o.InlineBudget {
				if o.RemarksOn() {
					o.missed(caller, "call "+c.Name, ReasonSizeThreshold,
						fmt.Sprintf("callee size %d exceeds the inline budget %d", size, o.InlineBudget))
				}
				continue
			}
			return in
		}
	}
	return nil
}

// inlineCall splices callee's body into caller at the call site, mapping
// the callee's blocks and values to their copies in cm.
func inlineCall(caller *ir.Func, call *ir.Instr, cm *cloneMap) {
	callee := call.Callee
	b := call.Block

	// 1. Split b at the call: everything after it moves to cont, which
	// inherits b's terminator and successor edges.
	cont := caller.NewBlock()
	idx := -1
	for i, in := range b.Instrs {
		if in == call {
			idx = i
			break
		}
	}
	cont.Instrs = append(cont.Instrs, b.Instrs[idx+1:]...)
	for _, in := range cont.Instrs {
		in.Block = cont
	}
	b.Instrs = b.Instrs[:idx] // also drops the call itself
	// Successors of the old terminator now come from cont.
	if t := cont.Term(); t != nil {
		for _, s := range t.Edges {
			for i, p := range s.Preds {
				if p == b {
					s.Preds[i] = cont
				}
			}
			for _, in := range s.Instrs {
				if in.Op != ir.OpPhi {
					break
				}
				for i, pb := range in.Edges {
					if pb == b {
						in.Edges[i] = cont
					}
				}
			}
		}
	}

	// 2. Clone callee blocks.
	cm.reset(callee.NumBlocks(), callee.NumValues())
	for _, cb := range callee.Blocks {
		cm.setBlock(cb, caller.NewBlock())
	}
	type retEdge struct {
		val   *ir.Instr // mapped return value (nil for void)
		block *ir.Block
	}
	var rets []retEdge

	mapVal := func(v *ir.Instr) *ir.Instr {
		if nv, ok := cm.val(v); ok {
			return nv
		}
		return v // values defined in caller (call args) are used directly
	}
	mapBlock := func(b *ir.Block) *ir.Block {
		nb, _ := cm.block(b)
		return nb
	}

	for _, cb := range callee.Blocks {
		nb := mapBlock(cb)
		for _, in := range cb.Instrs {
			switch in.Op {
			case ir.OpParam:
				cm.setVal(in, call.Args[in.IntVal])
				continue
			case ir.OpRet:
				var rv *ir.Instr
				if len(in.Args) > 0 {
					rv = mapVal(in.Args[0])
				}
				rets = append(rets, retEdge{rv, nb})
				br := nb.NewInstr(ir.OpBr, nil)
				br.Edges = []*ir.Block{cont}
				nb.Instrs = append(nb.Instrs, br)
				continue
			}
			ni := nb.NewInstr(in.Op, in.Typ)
			ni.IntVal = in.IntVal
			ni.Global = in.Global
			ni.Callee = in.Callee
			ni.BinOp = in.BinOp
			ni.Widened = in.Widened
			for _, a := range in.Args {
				ni.Args = append(ni.Args, mapVal(a))
			}
			for _, t := range in.Edges {
				ni.Edges = append(ni.Edges, mapBlock(t))
			}
			cm.setVal(in, ni)
			nb.Instrs = append(nb.Instrs, ni)
		}
	}

	// Phi args may have been cloned before their operands (back edges), and
	// a return in an early-ordered block can reference a value from a
	// later-ordered block (block list order is not topological); remap any
	// stale references now — including the captured return values, which
	// flow into the caller's continuation.
	for _, cb := range callee.Blocks {
		for _, in := range mapBlock(cb).Instrs {
			for i, a := range in.Args {
				in.Args[i] = mapVal(a)
			}
		}
	}
	for i := range rets {
		if rets[i].val != nil {
			rets[i].val = mapVal(rets[i].val)
		}
	}

	// 3. b jumps into the cloned entry.
	br := b.NewInstr(ir.OpBr, nil)
	br.Edges = []*ir.Block{mapBlock(callee.Entry())}
	b.Instrs = append(b.Instrs, br)

	// 4. The call's result value.
	if call.Typ != nil {
		var result *ir.Instr
		switch len(rets) {
		case 0:
			// The callee never returns (e.g. an infinite loop): cont is
			// unreachable; materialize a placeholder for its dead uses.
			if call.Typ.Kind == types.Pointer {
				result = cont.NewInstr(ir.OpNull, call.Typ)
			} else {
				result = cont.NewInstr(ir.OpConst, call.Typ)
			}
			cont.Instrs = append([]*ir.Instr{result}, cont.Instrs...)
		case 1:
			result = rets[0].val
		default:
			phi := cont.NewInstr(ir.OpPhi, call.Typ)
			for _, r := range rets {
				phi.Args = append(phi.Args, r.val)
				phi.Edges = append(phi.Edges, r.block)
			}
			cont.Instrs = append([]*ir.Instr{phi}, cont.Instrs...)
			result = phi
		}
		ir.ReplaceAllUses(call, result)
	}

	caller.RecomputePreds()
}
