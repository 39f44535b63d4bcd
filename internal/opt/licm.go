package opt

import (
	"fmt"
	"sync"

	"dcelens/internal/ir"
)

// LICM hoists loop-invariant computations into a preheader: pure
// instructions whose operands are defined outside the loop, and invariant
// loads when nothing in the loop can write the location (no may-aliasing
// stores, no internal calls, and — for escaping storage — no external
// calls).
var LICM = Pass{Name: "licm", Pre: ComputeEscapesOpt, Fn: licmFunc}

func licmFunc(f *ir.Func, o Options) bool {
	changed := false
	if removeUnreachable(f) { // preheader creation assumes reachable preds
		f.MarkMutated() // unreported mutation; dirty tracking must see it
	}
	dt := ir.Dominators(f)
	loops := ir.NaturalLoops(f, dt)
	ac := NewAliasCtx(f, o.Alias)
	defined := licmPool.Get().(*[]bool)
	for _, l := range loops {
		if licmLoop(f, l, ac, o, defined) {
			changed = true
		}
	}
	licmPool.Put(defined)
	return changed
}

// licmPool recycles licmLoop's definedInLoop table (see scratch.go; it
// holds no pointers, so it needs no clearing on return).
var licmPool = sync.Pool{New: func() any { return new([]bool) }}

// loadSubject names the location a load reads, for remarks.
func loadSubject(in *ir.Instr) string {
	loc := ResolveLoc(in.Args[0])
	switch {
	case loc.G != nil:
		return "load " + loc.G.Name
	case loc.A != nil:
		return fmt.Sprintf("load alloca v%d", loc.A.ID)
	default:
		return fmt.Sprintf("load v%d", in.ID)
	}
}

// preheader finds or creates the unique out-of-loop predecessor block of
// the loop header. Returns nil when the header is the function entry (no
// outside edge to redirect) or the CFG shape is unsupported.
func preheader(f *ir.Func, l *ir.Loop) *ir.Block {
	var outside []*ir.Block
	for _, p := range l.Header.Preds {
		if !l.Blocks[p] {
			outside = append(outside, p)
		}
	}
	if len(outside) == 0 {
		return nil
	}
	if len(outside) == 1 {
		p := outside[0]
		// Usable directly when the header is its only successor target.
		if t := p.Term(); t != nil && t.Op == ir.OpBr {
			return p
		}
	}
	// Create a dedicated preheader: outside preds -> pre -> header.
	pre := f.NewBlock()
	br := pre.NewInstr(ir.OpBr, nil)
	br.Targets = []*ir.Block{l.Header}
	pre.Instrs = []*ir.Instr{br}

	// Move phi entries for outside preds into a phi in pre (or reuse the
	// single value).
	for _, in := range l.Header.Instrs {
		if in.Op != ir.OpPhi {
			break
		}
		var vals []*ir.Instr
		var preds []*ir.Block
		var keptVals []*ir.Instr
		var keptPreds []*ir.Block
		for i, pb := range in.PhiPreds {
			if l.Blocks[pb] {
				keptVals = append(keptVals, in.Args[i])
				keptPreds = append(keptPreds, pb)
			} else {
				vals = append(vals, in.Args[i])
				preds = append(preds, pb)
			}
		}
		var fromPre *ir.Instr
		if allSame(vals) {
			fromPre = vals[0]
		} else {
			phi := pre.NewInstr(ir.OpPhi, in.Typ)
			phi.Args = vals
			phi.PhiPreds = preds
			pre.Instrs = append([]*ir.Instr{phi}, pre.Instrs...)
			fromPre = phi
		}
		in.Args = append(keptVals, fromPre)
		in.PhiPreds = append(keptPreds, pre)
	}
	// Redirect outside edges to pre.
	for _, p := range outside {
		t := p.Term()
		for i, tgt := range t.Targets {
			if tgt == l.Header {
				t.Targets[i] = pre
			}
		}
		for i, q := range l.Header.Preds {
			if q == p {
				l.Header.Preds = append(l.Header.Preds[:i], l.Header.Preds[i+1:]...)
				break
			}
		}
		pre.Preds = append(pre.Preds, p)
	}
	l.Header.Preds = append(l.Header.Preds, pre)
	return pre
}

func allSame(vals []*ir.Instr) bool {
	for _, v := range vals[1:] {
		if v != vals[0] {
			return false
		}
	}
	return true
}

func licmLoop(f *ir.Func, l *ir.Loop, ac *AliasCtx, o Options, defined *[]bool) bool {
	// Collect loop memory behaviour. Iterate f.Blocks for determinism.
	var loopStores []Loc
	hasInternalCall, hasExternalCall := false, false
	for _, b := range f.Blocks {
		if !l.Blocks[b] {
			continue
		}
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpStore:
				loopStores = append(loopStores, ResolveLoc(in.Args[0]))
			case ir.OpCall:
				if in.Callee != nil && in.Callee.External {
					hasExternalCall = true
				} else {
					hasInternalCall = true
				}
			}
		}
	}

	// Dense by instruction ID; values created later (preheader branch/phis)
	// are out of range and correctly read as defined outside the loop.
	*defined = resize(*defined, f.NumValues())
	definedInLoop := *defined
	for _, b := range f.Blocks {
		if !l.Blocks[b] {
			continue
		}
		for _, in := range b.Instrs {
			definedInLoop[in.ID] = true
		}
	}

	invariant := func(in *ir.Instr) bool {
		for _, a := range in.Args {
			if a.ID < len(definedInLoop) && definedInLoop[a.ID] {
				return false
			}
		}
		return true
	}
	// loadReject returns the reason a loop-invariant load cannot be
	// hoisted, or "" when it can — the reason string doubles as the
	// Missed remark code, so the check and the explanation cannot drift.
	loadReject := func(in *ir.Instr) (Reason, string) {
		if hasInternalCall {
			return ReasonCallClobber, "an internal call in the loop has no mod/ref summary"
		}
		loc := ResolveLoc(in.Args[0])
		// Speculation safety: the load may run on iterations (or paths)
		// where it originally did not, so the access must be provably
		// in-bounds — a known offset into known storage.
		switch {
		case loc.G != nil && loc.OffKnown && loc.Off >= 0 && loc.Off < int64(loc.G.Len):
		case loc.A != nil && loc.OffKnown && loc.Off >= 0 && loc.Off < int64(loc.A.Count):
		default:
			return ReasonBoundsUnknown, "access not provably in bounds, so speculation is unsafe"
		}
		if hasExternalCall {
			clobbered := (loc.G != nil && loc.G.Escapes) ||
				(loc.A != nil && ac.isExposed(loc.A)) ||
				(loc.G == nil && loc.A == nil)
			if clobbered {
				return ReasonEscape, "an external call in the loop may write the escaping location"
			}
		}
		for _, s := range loopStores {
			if ac.MayAlias(s, loc) {
				return ReasonAliasUnknown, "a store in the loop may alias the loaded location"
			}
		}
		return "", ""
	}

	var pre *ir.Block
	var scratch []*ir.Instr // reused snapshot: hoisting mutates b.Instrs mid-walk
	changed := false
	for {
		moved := false
		for _, b := range f.Blocks {
			if !l.Blocks[b] {
				continue
			}
			scratch = append(scratch[:0], b.Instrs...)
			for _, in := range scratch {
				hoist := false
				switch {
				case in.Op == ir.OpPhi || in.Op.IsTerminator():
				case in.Op == ir.OpAlloca:
					// Allocas create a fresh object per execution; hoisting
					// would change object lifetimes. Leave them.
				case in.IsPure() && invariant(in):
					hoist = true
				case in.Op == ir.OpLoad && invariant(in):
					reason, detail := loadReject(in)
					if reason == "" {
						hoist = true
					} else if o.RemarksOn() {
						o.missed(f, loadSubject(in), reason, detail)
					}
				}
				if !hoist {
					continue
				}
				if pre == nil {
					pre = preheader(f, l)
					if pre == nil {
						return changed
					}
				}
				in.Remove()
				pre.InsertBefore(in, pre.Term())
				definedInLoop[in.ID] = false
				moved = true
				changed = true
				if o.RemarksOn() {
					o.applied(f, fmt.Sprintf("hoist v%d (%s)", in.ID, in.Op), "loop-invariant; moved to preheader")
				}
			}
		}
		if !moved {
			return changed
		}
	}
}
