// Package ir defines the SSA intermediate representation shared by both
// compiler personalities, together with CFG utilities (dominators, loops),
// a verifier, a printer, and an independent executor used to validate that
// optimization pipelines preserve semantics.
//
// The IR is a conventional SSA: functions hold basic blocks, blocks hold
// instructions, the last instruction of each block is its terminator. Memory
// is modelled with Alloca/GlobalAddr/GEP/Load/Store; scalars are promoted to
// SSA registers by the mem2reg pass. There are no unary operations: the
// lowering normalizes -x to 0-x and ~x to x^-1, and !x to x==0, which keeps
// every optimization pass's case analysis small.
package ir

import (
	"fmt"

	"dcelens/internal/token"
	"dcelens/internal/types"
)

// Op enumerates instruction kinds.
type Op int

const (
	OpInvalid Op = iota

	// Pure value producers.
	OpConst      // integer constant (IntVal, Typ)
	OpNull       // null pointer constant (Typ is the pointer type)
	OpGlobalAddr // address of Global (Typ = *elem)
	OpParam      // function parameter ParamIdx
	OpPhi        // SSA phi; Args parallel to PhiPreds
	OpBin        // binary operation BinOp on Args[0], Args[1]
	OpCast       // integer conversion to Typ of Args[0]
	OpGEP        // pointer arithmetic: Args[0] (pointer) + Args[1] (i64 elements)
	OpSelect     // Args[0] ? Args[1] : Args[2]
	OpFreeze     // identity on Args[0], opaque to every analysis (LLVM's freeze)

	// Memory.
	OpAlloca // stack slot of Count elements of Typ.Elem; Typ = *elem
	OpLoad   // load Typ from address Args[0]
	OpStore  // store Args[1] to address Args[0]; no result

	// Calls.
	OpCall // call Callee with Args

	// Terminators.
	OpRet    // return Args[0] (optional)
	OpBr     // jump to Targets[0]
	OpCondBr // if Args[0] != 0 goto Targets[0] else Targets[1]
)

var opNames = map[Op]string{
	OpConst: "const", OpNull: "null", OpGlobalAddr: "addr", OpParam: "param",
	OpPhi: "phi", OpBin: "bin", OpCast: "cast", OpGEP: "gep", OpSelect: "select",
	OpFreeze: "freeze",
	OpAlloca: "alloca", OpLoad: "load", OpStore: "store", OpCall: "call",
	OpRet: "ret", OpBr: "br", OpCondBr: "condbr",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// IsTerminator reports whether the op ends a basic block.
func (o Op) IsTerminator() bool { return o == OpRet || o == OpBr || o == OpCondBr }

// Const is a compile-time constant used in global initializers: either an
// integer or the address of a global plus an element offset.
type Const struct {
	Int    int64
	Global *Global
	Off    int64
	IsAddr bool
}

// Global is a module-level variable.
type Global struct {
	Name     string
	Elem     *types.Type // element type (variable type for scalars)
	Len      int         // 1 for scalars
	Init     []Const     // missing trailing entries are zero
	Internal bool        // static storage class (internal linkage)

	// Escapes is computed by opt.ComputeEscapes: true when external code
	// could observe or modify the global (external linkage, or its address
	// escapes). Opaque calls clobber exactly the escaping globals.
	Escapes bool

	// AddrExposed is computed alongside Escapes: true when the global's
	// address flows anywhere other than directly into loads, stores, and
	// comparisons (stored to memory, passed to calls, mixed into phis or
	// selects, or taken in another global's initializer). A pointer of
	// unknown provenance can only point to address-exposed objects.
	AddrExposed bool
}

// Module is a compilation unit.
type Module struct {
	Globals []*Global
	Funcs   []*Func
}

// LookupFunc returns the function named name, or nil.
func (m *Module) LookupFunc(name string) *Func {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// LookupGlobal returns the global named name, or nil.
func (m *Module) LookupGlobal(name string) *Global {
	for _, g := range m.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}

// Func is a function definition (or declaration when External).
type Func struct {
	Name     string
	Ret      *types.Type
	ParamTys []*types.Type
	Internal bool // static
	External bool // declaration only: body unavailable to the optimizer
	Blocks   []*Block

	// WasInlined records that the inliner substituted this function's body
	// at one or more call sites. GlobalDCE's KeepSRAClones knob retains
	// dead pointer-parameter functions only when they were inlined away —
	// the shape of GCC's leftover interprocedural-SRA copies (paper
	// Listing 9b) — rather than every never-called helper.
	WasInlined bool

	nextBlockID int
	nextValueID int

	// gen counts observable mutations of the body. The pass manager bumps
	// it whenever a pass reports changing the function and uses it to skip
	// re-running passes over functions nothing changed; passes that mutate
	// a body without reporting it through their changed flag (cleanup
	// helpers whose result is discarded) call MarkMutated directly.
	gen uint64
}

// Entry returns the entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// Gen returns the function's mutation generation.
func (f *Func) Gen() uint64 { return f.gen }

// MarkMutated records an observable mutation of the function body.
func (f *Func) MarkMutated() { f.gen++ }

// NewBlock appends a fresh empty block.
func (f *Func) NewBlock() *Block {
	b := &Block{ID: f.nextBlockID, Func: f}
	f.nextBlockID++
	f.Blocks = append(f.Blocks, b)
	return b
}

// NumValues returns an upper bound on instruction IDs (for dense maps).
func (f *Func) NumValues() int { return f.nextValueID }

// NumBlocks returns an upper bound on block IDs (for dense maps).
func (f *Func) NumBlocks() int { return f.nextBlockID }

// Block is a basic block. Preds is maintained eagerly by the edge-editing
// helpers below; Succs is derived from the terminator.
type Block struct {
	ID     int
	Func   *Func
	Instrs []*Instr
	Preds  []*Block
}

// Term returns the block's terminator, or nil if the block is unterminated
// (only during construction).
func (b *Block) Term() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	t := b.Instrs[len(b.Instrs)-1]
	if !t.Op.IsTerminator() {
		return nil
	}
	return t
}

// Succs returns the successor blocks in terminator order.
func (b *Block) Succs() []*Block {
	t := b.Term()
	if t == nil {
		return nil
	}
	return t.Targets
}

// Instr is an SSA instruction; it doubles as the SSA value it produces.
type Instr struct {
	Op    Op
	ID    int
	Typ   *types.Type // result type; nil for void (store, br, ret)
	Args  []*Instr
	Block *Block

	// Op-specific payload.
	IntVal   int64      // OpConst
	Global   *Global    // OpGlobalAddr
	Callee   *Func      // OpCall
	ParamIdx int        // OpParam
	Count    int        // OpAlloca element count
	BinOp    token.Kind // OpBin
	Targets  []*Block   // OpBr, OpCondBr
	PhiPreds []*Block   // OpPhi: incoming edge for each Arg

	// Widened marks a store whose value was re-typed by the store-widening
	// ("vectorization") pass; widened stores defeat store-to-load
	// forwarding because the forwarded type no longer matches.
	Widened bool
}

// NewInstr creates an instruction owned by b's function (not yet inserted).
func (b *Block) NewInstr(op Op, typ *types.Type, args ...*Instr) *Instr {
	f := b.Func
	in := &Instr{Op: op, ID: f.nextValueID, Typ: typ, Args: args, Block: b}
	f.nextValueID++
	return in
}

// Append creates the instruction and appends it to b.
func (b *Block) Append(op Op, typ *types.Type, args ...*Instr) *Instr {
	in := b.NewInstr(op, typ, args...)
	b.Instrs = append(b.Instrs, in)
	return in
}

// InsertBefore inserts in ahead of pos within b. The insertion grows the
// slice by one and shifts the tail with a single copy; the old
// append(append(...)) idiom allocated and copied the tail twice.
func (b *Block) InsertBefore(in *Instr, pos *Instr) {
	for i, x := range b.Instrs {
		if x == pos {
			b.Instrs = append(b.Instrs, nil)
			copy(b.Instrs[i+1:], b.Instrs[i:])
			b.Instrs[i] = in
			in.Block = b
			return
		}
	}
	panic("ir: InsertBefore: position not in block")
}

// Remove deletes in from its block. The instruction must be unused.
// (Unlike the historical InsertBefore, this append already shifts the tail
// in place with a single copy and no allocation.)
func (in *Instr) Remove() {
	b := in.Block
	for i, x := range b.Instrs {
		if x == in {
			b.Instrs = append(b.Instrs[:i], b.Instrs[i+1:]...)
			return
		}
	}
	panic("ir: Remove: instruction not in its block")
}

// HasSideEffects reports whether the instruction cannot be deleted even if
// its result is unused. Loads are pure in MiniC (no traps are modelled at
// the IR level; the source guarantees in-bounds accesses).
func (in *Instr) HasSideEffects() bool {
	switch in.Op {
	case OpStore, OpCall, OpRet, OpBr, OpCondBr:
		return true
	}
	return false
}

// IsPure reports the opposite of HasSideEffects for value-producing ops,
// and additionally excludes loads (whose value depends on memory state).
// OpFreeze is deliberately excluded: it is side-effect free (DCE may drop
// an unused freeze) but must remain opaque to value-based reasoning, so it
// never participates in CSE or folding.
func (in *Instr) IsPure() bool {
	switch in.Op {
	case OpConst, OpNull, OpGlobalAddr, OpParam, OpPhi, OpBin, OpCast, OpGEP, OpSelect, OpAlloca:
		return true
	}
	return false
}

// ---------------------------------------------------------------------------
// Edge editing. These helpers keep Preds, terminators, and phi nodes
// consistent; passes must use them rather than mutating edges by hand.

// AddEdge records an edge from p to s (terminator Targets must already
// include s, or be added by the caller).
func AddEdge(p, s *Block) {
	s.Preds = append(s.Preds, p)
}

// RemoveEdge removes one edge p->s, dropping the corresponding phi inputs
// in s. If p occurs multiple times (a condbr with both targets equal), only
// one occurrence is removed.
func RemoveEdge(p, s *Block) {
	for i, q := range s.Preds {
		if q == p {
			s.Preds = append(s.Preds[:i], s.Preds[i+1:]...)
			for _, in := range s.Instrs {
				if in.Op != OpPhi {
					break
				}
				for j, pb := range in.PhiPreds {
					if pb == p {
						in.PhiPreds = append(in.PhiPreds[:j], in.PhiPreds[j+1:]...)
						in.Args = append(in.Args[:j], in.Args[j+1:]...)
						break
					}
				}
			}
			return
		}
	}
	panic("ir: RemoveEdge: edge not present")
}

// RedirectEdge changes an edge p->from into p->to, updating p's terminator,
// from's preds/phis, and to's preds. Phi nodes in to gain no entry; the
// caller must add them if needed.
func RedirectEdge(p, from, to *Block) {
	t := p.Term()
	done := false
	for i, tgt := range t.Targets {
		if tgt == from && !done {
			t.Targets[i] = to
			done = true
		}
	}
	if !done {
		panic("ir: RedirectEdge: target not found")
	}
	RemoveEdge(p, from)
	AddEdge(p, to)
}

// ReplaceAllUses rewrites every use of old to new within old's function.
func ReplaceAllUses(old, new *Instr) {
	f := old.Block.Func
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for i, a := range in.Args {
				if a == old {
					in.Args[i] = new
				}
			}
		}
	}
}

// Relocator batches use replacements. ReplaceAllUses costs a full function
// scan per call, which made replacement the single hottest operation in the
// middle end; a pass that performs many replacements instead records each
// one with Add, reads operands through Resolve while it works, and rewrites
// every argument slot with one Apply sweep at the end — O(function) total
// instead of O(function) per replacement.
//
// Pending replacements sit in a table indexed by Instr.ID, so a Relocator
// serves one function at a time (Reset between functions). Each slot also
// holds the value it maps, so a value of another function whose ID
// collides with a mapped one resolves to itself.
type Relocator struct {
	slots []relocSlot // by Instr.ID
	n     int         // occupied slots
}

type relocSlot struct{ old, new *Instr }

// Add records that every use of old should become new. Chains (old→a, a→b)
// are permitted; Resolve and Apply follow them to the final target. A
// self-mapping (new resolving back to old) is ignored rather than recorded —
// it could only arise from degenerate IR (a self-referential phi) and would
// otherwise make Resolve cycle forever.
func (r *Relocator) Add(old, new *Instr) {
	n := r.Resolve(new)
	if n == old {
		return
	}
	if old.ID >= len(r.slots) {
		r.grow(old)
	}
	s := &r.slots[old.ID]
	switch s.old {
	case nil:
		r.n++
	case old:
	default:
		panic("ir: Relocator: values of two functions share an ID")
	}
	s.old, s.new = old, n
}

// grow extends the table to cover v's ID, sized for every value of v's
// function so that one allocation usually serves a whole pass.
func (r *Relocator) grow(v *Instr) {
	n := max(v.ID+1, 2*len(r.slots))
	if v.Block != nil {
		n = max(n, v.Block.Func.NumValues())
	}
	slots := make([]relocSlot, n)
	copy(slots, r.slots)
	r.slots = slots
}

// target returns v's recorded replacement, or nil when it has none.
func (r *Relocator) target(v *Instr) *Instr {
	if v != nil && uint(v.ID) < uint(len(r.slots)) && r.slots[v.ID].old == v {
		return r.slots[v.ID].new
	}
	return nil
}

// Resolve returns the current replacement target for v (v itself when it
// has none), following chains with path compression.
func (r *Relocator) Resolve(v *Instr) *Instr {
	n := r.target(v)
	if n == nil {
		return v
	}
	for n2 := r.target(n); n2 != nil; n2 = r.target(n) {
		n = n2
	}
	r.slots[v.ID].new = n
	return n
}

// Empty reports whether no replacements are pending.
func (r *Relocator) Empty() bool { return r.n == 0 }

// Apply rewrites every argument slot in f through the pending replacements.
func (r *Relocator) Apply(f *Func) {
	if r.n == 0 {
		return
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for i, a := range in.Args {
				if n := r.Resolve(a); n != a {
					in.Args[i] = n
				}
			}
		}
	}
}

// Reset clears pending replacements, retaining the table for reuse. Every
// slot is zero afterwards, so a reset Relocator references no values.
func (r *Relocator) Reset() {
	if r.n > 0 { // with no occupied slot, the table is already zero
		clear(r.slots)
		r.n = 0
	}
}

// CountUses returns the number of operand slots referencing in.
func CountUses(in *Instr) int {
	n := 0
	f := in.Block.Func
	for _, b := range f.Blocks {
		for _, i2 := range b.Instrs {
			for _, a := range i2.Args {
				if a == in {
					n++
				}
			}
		}
	}
	return n
}

// RecomputePreds rebuilds all Preds lists from the terminators. Phi nodes
// must already be consistent with the new edge set (callers that restructure
// the CFG wholesale, like the lowerer, use this once at the end).
func (f *Func) RecomputePreds() {
	for _, b := range f.Blocks {
		b.Preds = b.Preds[:0]
	}
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			s.Preds = append(s.Preds, b)
		}
	}
}
