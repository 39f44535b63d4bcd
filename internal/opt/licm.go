package opt

import (
	"fmt"

	"dcelens/internal/ir"
	"dcelens/internal/pool"
)

// LICM hoists loop-invariant computations into a preheader: pure
// instructions whose operands are defined outside the loop, and invariant
// loads when nothing in the loop can write the location (no may-aliasing
// stores, no internal calls, and — for escaping storage — no external
// calls).
var LICM = Pass{Name: "licm", Pre: ComputeEscapesOpt, Fn: licmFunc, Reads: func(o Options) Options {
	return Options{Alias: o.Alias, PessimisticEscape: o.PessimisticEscape}
}}

func licmFunc(f *ir.Func, o Options) bool {
	st := licmPool.Get()
	changed := false
	if removeUnreachable(f, &st.cfg) { // preheader creation assumes reachable preds
		f.MarkMutated() // unreported mutation; dirty tracking must see it
	}
	loops := st.cfg.loops(f)
	st.ac.reset(f, o.Alias)
	for _, l := range loops {
		if licmLoop(f, l, &st.ac, o, &st.defined) {
			changed = true
		}
	}
	st.cfg.reset()
	licmPool.Put(st)
	return changed
}

// licmState is licm's pooled scratch (see scratch.go): the CFG analyses,
// the alias context and licmLoop's definedInLoop table, which hold no
// pointers once the analyses are reset.
type licmState struct {
	cfg     cfgScratch
	ac      AliasCtx
	defined []bool
}

var licmPool = pool.Pool[licmState]{New: func() *licmState { return new(licmState) }}

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
		if !l.Contains(p) {
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
	br.Edges = []*ir.Block{l.Header}
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
		for i, pb := range in.Edges {
			if l.Contains(pb) {
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
			phi.Edges = preds
			pre.Instrs = append([]*ir.Instr{phi}, pre.Instrs...)
			fromPre = phi
		}
		in.Args = append(keptVals, fromPre)
		in.Edges = append(keptPreds, pre)
	}
	// Redirect outside edges to pre.
	for _, p := range outside {
		t := p.Term()
		for i, tgt := range t.Edges {
			if tgt == l.Header {
				t.Edges[i] = pre
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
		if !l.Contains(b) {
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
		if !l.Contains(b) {
			continue
		}
		for _, in := range b.Instrs {
			definedInLoop[in.ID] = true
		}
	}

	invariant := func(in *ir.Instr) bool {
		for _, a := range in.Args {
			if int(a.ID) < len(definedInLoop) && definedInLoop[a.ID] {
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
		case loc.A != nil && loc.OffKnown && loc.Off >= 0 && loc.Off < loc.A.IntVal:
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
			if !l.Contains(b) {
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
				o.applied()
			}
		}
		if !moved {
			return changed
		}
	}
}
