package opt

import (
	"fmt"

	"dcelens/internal/ir"
	"dcelens/internal/pool"
	"dcelens/internal/types"
)

// IPSCCP is the interprocedural global value analysis — the pass whose
// precision differences drive the paper's flagship examples:
//
//   - GlobalPropNoStores is GCC's flow-insensitive analysis: a static
//     global is a constant only if nothing in the module ever stores to it
//     (Listing 4a: GCC cannot see that `a` is 0 at `if (a)` because a
//     store `a = 0` exists *somewhere*).
//   - GlobalPropSameConst is LLVM >= 3.8: stores that write the same
//     constant as the initializer keep the global constant.
//   - GlobalPropFlowAware restores LLVM <= 3.7 behaviour: a load that no
//     store can reach on any control-flow path observes the initializer
//     (losing this was the regression in Listing 6a: `a = 1` at the end of
//     main stopped `if (a)` at the top from folding).
//
// With RedundantStoreElim, stores that provably write the value the global
// already holds are deleted; without it they survive to the assembly — the
// `movl $0, a(%rip)` dead store GCC keeps in Listing 4b.
//
// ConstArrayLoadFold additionally folds loads (with arbitrary indices) from
// never-written arrays whose elements are all the same constant (Listing
// 9f: `b[a]` where b = {0, 0}).
var IPSCCP = Pass{Name: "ipsccp", Run: ipsccp, Reads: func(o Options) Options {
	return Options{
		GlobalProp: o.GlobalProp, ConstArrayLoadFold: o.ConstArrayLoadFold,
		RedundantStoreElim: o.RedundantStoreElim, PessimisticEscape: o.PessimisticEscape,
	}
}}

func ipsccp(m *ir.Module, o Options, inv *Invalidation) bool {
	if o.GlobalProp == GlobalPropNone {
		return false
	}
	if ComputeEscapesOpt(m, o) {
		inv.Facts()
	}
	ai := buildAccessIndex(m)
	defer ai.release()
	changed := false
	for _, g := range m.Globals {
		if g.Escapes || g.AddrExposed {
			// Other code can touch it: no module-wide view. Internal
			// globals are the interesting misses — external ones were
			// never candidates.
			if o.RemarksOn() && g.Internal {
				o.missedModule("global "+g.Name, ReasonEscape,
					"escaping or address-exposed: no module-wide view of its value")
			}
			continue
		}
		if g.Len == 1 {
			if propagateScalar(m, g, o, ai, inv) {
				changed = true
			}
		} else if o.ConstArrayLoadFold {
			if propagateConstArray(m, g, ai, inv) {
				changed = true
				o.applied()
			}
		}
	}
	return changed
}

// accessIndex answers "all loads and stores of global g" for every global at
// once from a single module sweep. Its predecessor rescanned the enclosing
// function once per OpGlobalAddr instance per queried global — quadratic on
// real units and ~9% of campaign CPU. Consumers must rebuild the index after
// a transformation that materializes new address instructions (folding a
// pointer global rewrites loads into fresh OpGlobalAddr/OpGEP values, i.e.
// brand-new accesses of the *target* global); all other propagations only
// delete accesses of the already-queried global and replace values with
// non-address constants, which cannot grow any other global's access set.
//
// Indexes are recycled through accessPool under the pooled-scratch rule
// (scratch.go): the per-value table serves every function of every
// build, and the map keeps its buckets. The per-value table holds no
// pointer, so clearing it pays no write barrier and the collector never
// scans it; it numbers the globals a function addresses instead.
type accessIndex struct {
	info map[*ir.Global]*globalAccessInfo
	// bases describes the values of the function being indexed, by
	// Instr.ID, and addrs lists the global each of its OpGlobalAddr
	// values takes the address of; both are empty between builds.
	bases []valueBase
	addrs []*ir.Global
}

// valueBase is what the index knows of one value while it indexes the
// value's function.
type valueBase struct {
	g     int32 // chain base: 1 + the index in addrs of the global this value addresses, or 0
	chain bool  // the value is a GEP link, not the raw address
	state uint8 // GEP memo: 0 unresolved, 1 visiting, 2 done
}

type globalAccessInfo struct {
	loads, stores       []*ir.Instr // through the raw address
	gepLoads, gepStores []*ir.Instr // through GEP chains rooted at the address
	hasGEP              bool        // some GEP consumes the raw address
	badDirect           bool        // disallowed use of the raw address
	badGEP              bool        // disallowed use within a GEP chain
}

var accessPool = pool.Pool[accessIndex]{New: func() *accessIndex {
	return &accessIndex{info: map[*ir.Global]*globalAccessInfo{}}
}}

// buildAccessIndex indexes m's global accesses; the caller releases the
// index once it is done with it and with the access lists it returned.
func buildAccessIndex(m *ir.Module) *accessIndex {
	ai := accessPool.Get()
	ai.rebuild(m)
	return ai
}

// release returns the index to its pool.
func (ai *accessIndex) release() {
	clear(ai.info)
	accessPool.Put(ai)
}

// rebuild indexes m afresh, reusing ai's tables.
func (ai *accessIndex) rebuild(m *ir.Module) {
	clear(ai.info)
	for _, f := range m.Funcs {
		ai.bases = resize(ai.bases, f.NumValues())
		ai.addrs = shrink(ai.addrs, 0)
		bases := ai.bases
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				switch in.Op {
				case ir.OpGlobalAddr:
					ai.addr(in)
				case ir.OpGEP:
					ai.resolveBase(in)
					bases[in.ID].chain = true
				}
			}
		}
		for _, b := range f.Blocks {
			for _, u := range b.Instrs {
				for i, a := range u.Args {
					vb := bases[a.ID]
					if vb.g == 0 {
						continue
					}
					gi := ai.of(ai.addrs[vb.g-1])
					if !vb.chain {
						switch {
						case u.Op == ir.OpLoad:
							gi.loads = append(gi.loads, u)
						case u.Op == ir.OpStore && i == 0:
							gi.stores = append(gi.stores, u)
						case u.Op == ir.OpBin:
							// comparison: fine, no access
						case u.Op == ir.OpGEP && i == 0:
							gi.hasGEP = true // the GEP link reports its own uses
						default:
							gi.badDirect = true
							gi.badGEP = true
						}
					} else {
						switch {
						case u.Op == ir.OpLoad:
							gi.gepLoads = append(gi.gepLoads, u)
						case u.Op == ir.OpStore && i == 0:
							gi.gepStores = append(gi.gepStores, u)
						case u.Op == ir.OpBin:
							// comparisons are fine
						case u.Op == ir.OpGEP && i == 0:
							// chain continues; the successor link reports its own uses
						default:
							gi.badGEP = true
						}
					}
				}
			}
		}
	}
	ai.bases, ai.addrs = shrink(ai.bases, 0), shrink(ai.addrs, 0)
}

// of returns g's entry, creating it.
func (ai *accessIndex) of(g *ir.Global) *globalAccessInfo {
	gi := ai.info[g]
	if gi == nil {
		gi = &globalAccessInfo{}
		ai.info[g] = gi
	}
	return gi
}

// addr returns the number of the OpGlobalAddr value in's global in addrs,
// numbering it when in is first seen.
func (ai *accessIndex) addr(in *ir.Instr) int32 {
	vb := &ai.bases[in.ID]
	if vb.g == 0 {
		ai.addrs = append(ai.addrs, in.Global)
		vb.g = int32(len(ai.addrs))
	}
	return vb.g
}

// resolveBase returns the number of the global the GEP chain ending in in
// addresses, or 0 for none, memoized in bases.
func (ai *accessIndex) resolveBase(in *ir.Instr) int32 {
	switch in.Op {
	case ir.OpGlobalAddr:
		return ai.addr(in)
	case ir.OpGEP:
		vb := &ai.bases[in.ID]
		switch vb.state {
		case 0:
			vb.state = 1
			vb.g = ai.resolveBase(in.Args[0])
			vb.state = 2
		case 1:
			return 0 // defensive: SSA defs cannot cycle
		}
		return vb.g
	}
	return 0
}

// accesses collects all direct loads and stores of g. ok is false if g's
// address is used in any other way (e.g. behind non-constant GEPs for
// scalars — cannot happen for in-bounds MiniC scalars, but be safe). With
// allowGEP, accesses through well-formed GEP chains count as loads/stores
// instead of disqualifying the global.
func (ai *accessIndex) accesses(g *ir.Global, allowGEP bool) (loads, stores []*ir.Instr, ok bool) {
	gi := ai.info[g]
	if gi == nil {
		return nil, nil, true // address never materialized: no accesses
	}
	if gi.badDirect {
		return nil, nil, false
	}
	if !allowGEP {
		if gi.hasGEP {
			return nil, nil, false
		}
		return gi.loads, gi.stores, true
	}
	if gi.badGEP {
		return nil, nil, false
	}
	if len(gi.gepLoads) == 0 && len(gi.gepStores) == 0 {
		return gi.loads, gi.stores, true
	}
	loads = append(append([]*ir.Instr{}, gi.loads...), gi.gepLoads...)
	stores = append(append([]*ir.Instr{}, gi.stores...), gi.gepStores...)
	return loads, stores, true
}

func initConst(g *ir.Global, idx int) (int64, bool) {
	if g.Elem.Kind == types.Pointer {
		return 0, false // pointer globals: address constants, not handled here
	}
	if idx < len(g.Init) {
		if g.Init[idx].IsAddr {
			return 0, false
		}
		return g.Init[idx].Int, true
	}
	return 0, true // zero-initialized tail
}

func propagateScalar(m *ir.Module, g *ir.Global, o Options, ai *accessIndex, inv *Invalidation) bool {
	if g.Elem.Kind == types.Pointer {
		// Address-constant propagation for pointer globals requires the
		// stronger analysis tiers: GCC's flow-insensitive global value
		// analysis does not track pointer-valued initializers, which is a
		// large share of what it misses against LLVM on pointer-heavy
		// Csmith code (paper §4.2: LLVM eliminates an order of magnitude
		// more of GCC's misses than vice versa).
		if o.GlobalProp < GlobalPropSameConst {
			if o.RemarksOn() {
				o.missedModule("global "+g.Name, ReasonPrecision,
					"pointer-valued initializers need the flow-sensitive analysis tier (GlobalPropSameConst)")
			}
			return false
		}
		if propagatePointerGlobal(m, g, ai, inv) {
			o.applied()
			// The folded loads became fresh OpGlobalAddr/OpGEP values whose
			// uses are new accesses of the target global — reindex so a
			// later-iterated global sees them, exactly as the per-global
			// rescan used to.
			ai.rebuild(m)
			return true
		}
		return false
	}
	loads, stores, ok := ai.accesses(g, false)
	if !ok || (len(loads) == 0 && len(stores) == 0) {
		return false
	}
	init, ok := initConst(g, 0)
	if !ok {
		return false
	}

	// Which loads observe the initializer?
	var foldable []*ir.Instr
	deleteStores := false
	switch {
	case len(stores) == 0:
		// Flow-insensitive: no stores at all (GlobalPropNoStores and up).
		foldable = loads
	case o.GlobalProp >= GlobalPropSameConst && allStoresWrite(stores, init):
		// Every store rewrites the initial value: the global is invariant.
		foldable = loads
		deleteStores = o.RedundantStoreElim
	case o.GlobalProp >= GlobalPropFlowAware:
		// Loads that no store reaches observe the initializer.
		mainFn := m.LookupFunc("main")
		if mainIsCalled(m) {
			mainFn = nil // someone calls main: it may run more than once
		}
		for _, l := range loads {
			reachable := false
			for _, s := range stores {
				if storeReachesLoad(s, l, mainFn) {
					reachable = true
					break
				}
			}
			if !reachable {
				foldable = append(foldable, l)
			}
		}
	}
	if len(foldable) == 0 && !deleteStores {
		if o.RemarksOn() && len(stores) > 0 && len(loads) > 0 {
			o.missedModule("global "+g.Name, ReasonPrecision,
				fmt.Sprintf("%d stores block constant folding at analysis tier %d", len(stores), o.GlobalProp))
		}
		return false
	}
	for _, l := range foldable {
		c := l.Block.NewInstr(ir.OpConst, l.Typ)
		c.IntVal = l.Typ.WrapValue(init)
		l.Block.InsertBefore(c, l)
		ir.ReplaceAllUses(l, c)
		l.Remove()
		inv.Func(l.Block.Func)
	}
	if deleteStores {
		for _, s := range stores {
			s.Remove()
			inv.Func(s.Block.Func)
		}
		o.applied()
	}
	if len(foldable) > 0 {
		o.applied()
	}
	return len(foldable) > 0 || deleteStores
}

func allStoresWrite(stores []*ir.Instr, v int64) bool {
	for _, s := range stores {
		c, ok := isConst(s.Args[1])
		if !ok || c != v {
			return false
		}
	}
	return true
}

// storeReachesLoad reports whether any control path can execute s and then
// l. CFG reachability within a single activation is only meaningful for a
// function that runs at most once — main. For every other function (or for
// accesses split across functions) a store in one call can precede a load
// in a later call, so the answer is conservatively "reachable". Within
// main, plain CFG reachability is used (s's block reaches l's block, or
// they share a block with s first — a block inside a loop reaches itself).
func storeReachesLoad(s, l *ir.Instr, mainFn *ir.Func) bool {
	if s.Block.Func != l.Block.Func || s.Block.Func != mainFn || mainFn == nil {
		return true
	}
	f := s.Block.Func
	if s.Block == l.Block {
		// Same block: reachable if s comes first, or the block is in a
		// cycle (the path wraps around).
		for _, in := range s.Block.Instrs {
			if in == s {
				return true
			}
			if in == l {
				return blockInCycle(f, s.Block)
			}
		}
	}
	return blockReaches(f, s.Block, l.Block)
}

func blockReaches(f *ir.Func, from, to *ir.Block) bool {
	seen := map[*ir.Block]bool{}
	var dfs func(b *ir.Block) bool
	dfs = func(b *ir.Block) bool {
		if seen[b] {
			return false
		}
		seen[b] = true
		for _, s := range b.Succs() {
			if s == to || dfs(s) {
				return true
			}
		}
		return false
	}
	return dfs(from)
}

func blockInCycle(f *ir.Func, b *ir.Block) bool {
	return blockReaches(f, b, b)
}

// mainIsCalled reports whether any call site targets main (legal in C, and
// it would invalidate main-runs-once reasoning).
func mainIsCalled(m *ir.Module) bool {
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall && in.Callee != nil && in.Callee.Name == "main" {
					return true
				}
			}
		}
	}
	return false
}

// propagatePointerGlobal folds loads of a never-stored internal pointer
// global to its initializer's address constant (GlobalOpt does the same).
// The materialized &g+off values are what the pointer-comparison folders
// (and their precision knobs, paper Listing 3) subsequently act on.
func propagatePointerGlobal(m *ir.Module, g *ir.Global, ai *accessIndex, inv *Invalidation) bool {
	loads, stores, ok := ai.accesses(g, false)
	if !ok || len(stores) > 0 || len(loads) == 0 {
		return false
	}
	var target *ir.Global
	var off int64
	if len(g.Init) > 0 {
		if !g.Init[0].IsAddr {
			return false
		}
		target = g.Init[0].Global
		off = g.Init[0].Off
	}
	for _, l := range loads {
		b := l.Block
		var repl *ir.Instr
		if target == nil {
			repl = b.NewInstr(ir.OpNull, l.Typ)
			b.InsertBefore(repl, l)
		} else {
			ga := b.NewInstr(ir.OpGlobalAddr, types.PointerTo(target.Elem))
			ga.Global = target
			b.InsertBefore(ga, l)
			repl = ga
			if off != 0 {
				idx := b.NewInstr(ir.OpConst, types.I64Type)
				idx.IntVal = off
				b.InsertBefore(idx, l)
				gep := b.NewInstr(ir.OpGEP, ga.Typ, ga, idx)
				b.InsertBefore(gep, l)
				repl = gep
			}
		}
		ir.ReplaceAllUses(l, repl)
		l.Remove()
		inv.Func(l.Block.Func)
	}
	return true
}

// propagateConstArray folds loads from a never-written array whose
// initialized elements are all the same constant (with the
// zero-initialized tail, that means: all inits equal, and equal to 0 if
// the initializer does not cover the whole array).
func propagateConstArray(m *ir.Module, g *ir.Global, ai *accessIndex, inv *Invalidation) bool {
	if g.Elem.Kind == types.Pointer {
		return false
	}
	var val int64
	if len(g.Init) > 0 {
		if g.Init[0].IsAddr {
			return false
		}
		val = g.Init[0].Int
	}
	for _, c := range g.Init {
		if c.IsAddr || c.Int != val {
			return false
		}
	}
	if len(g.Init) < g.Len && val != 0 {
		return false
	}
	loads, stores, ok := ai.accesses(g, true)
	if !ok || len(stores) > 0 || len(loads) == 0 {
		return false
	}
	for _, l := range loads {
		c := l.Block.NewInstr(ir.OpConst, l.Typ)
		c.IntVal = l.Typ.WrapValue(val)
		l.Block.InsertBefore(c, l)
		ir.ReplaceAllUses(l, c)
		l.Remove()
		inv.Func(l.Block.Func)
	}
	return true
}
