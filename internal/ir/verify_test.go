package ir

import (
	"strings"
	"testing"

	"dcelens/internal/pool/pooltest"
	"dcelens/internal/types"
)

// retFunc returns a function named name whose entry block holds only
// "ret" — the smallest valid body, for cases that need a second function.
func retFunc(name string) *Func {
	f := &Func{Name: name, Ret: types.I32Type}
	f.NewBlock().Append(OpRet, nil)
	return f
}

// br appends an unconditional branch b -> to.
func br(b, to *Block) *Instr {
	t := b.Append(OpBr, nil)
	t.Edges = []*Block{to}
	return t
}

// TestVerifyDiagnostics builds one broken function per verifier message
// and checks that the message is reported. Several cases make a value or
// block of another function share an ID with one of the verified
// function's own, so a check keyed by ID alone would let them pass.
func TestVerifyDiagnostics(t *testing.T) {
	i32 := types.I32Type
	cases := []struct {
		name  string
		build func() *Module
		want  string
	}{
		{"external with blocks", func() *Module {
			f := &Func{Name: "f", External: true}
			f.NewBlock()
			return &Module{Funcs: []*Func{f}}
		}, "f: external function has blocks"},
		{"no blocks", func() *Module {
			return &Module{Funcs: []*Func{{Name: "f"}}}
		}, "f: no blocks"},
		{"empty block", func() *Module {
			f := retFunc("f")
			f.NewBlock()
			return &Module{Funcs: []*Func{f}}
		}, "b1: empty block"},
		{"wrong owner", func() *Module {
			f := &Func{Name: "f", Ret: i32}
			b0, b1 := f.NewBlock(), f.NewBlock()
			c := b0.Append(OpConst, i32)
			b0.Append(OpRet, nil, c)
			b1.Append(OpRet, nil)
			c.Block = b1
			return &Module{Funcs: []*Func{f}}
		}, "b0: instruction v0 has wrong owner"},
		{"terminator placement", func() *Module {
			f := &Func{Name: "f", Ret: i32}
			f.NewBlock().Append(OpConst, i32)
			return &Module{Funcs: []*Func{f}}
		}, "b0: terminator placement wrong at v0 (const)"},
		{"phi arity", func() *Module {
			f := &Func{Name: "f", Ret: i32}
			b0, b1 := f.NewBlock(), f.NewBlock()
			c := b0.Append(OpConst, i32)
			br(b0, b1)
			phi := b1.Append(OpPhi, i32, c, c)
			phi.Edges = []*Block{b0}
			b1.Append(OpRet, nil, phi)
			f.RecomputePreds()
			return &Module{Funcs: []*Func{f}}
		}, "b1: phi v2 has 2 args, 1 preds"},
		{"phi not at head", func() *Module {
			f := &Func{Name: "f", Ret: i32}
			b0, b1 := f.NewBlock(), f.NewBlock()
			c := b0.Append(OpConst, i32)
			br(b0, b1)
			b1.Append(OpConst, i32)
			phi := b1.Append(OpPhi, i32, c)
			phi.Edges = []*Block{b0}
			b1.Append(OpRet, nil, phi)
			f.RecomputePreds()
			return &Module{Funcs: []*Func{f}}
		}, "b1: phi v3 not at block head"},
		{"phi entries vs preds", func() *Module {
			f := &Func{Name: "f", Ret: i32}
			b0, b1 := f.NewBlock(), f.NewBlock()
			c := b0.Append(OpConst, i32)
			br(b0, b1)
			phi := b1.Append(OpPhi, i32, c, c)
			phi.Edges = []*Block{b0, b0}
			b1.Append(OpRet, nil, phi)
			f.RecomputePreds()
			return &Module{Funcs: []*Func{f}}
		}, "b1: phi v2 has 2 entries for 1 preds"},
		{"phi non-pred", func() *Module {
			f := &Func{Name: "f", Ret: i32}
			b0, b1, b2 := f.NewBlock(), f.NewBlock(), f.NewBlock()
			c := b0.Append(OpConst, i32)
			br(b0, b1)
			phi := b1.Append(OpPhi, i32, c)
			phi.Edges = []*Block{b2}
			b1.Append(OpRet, nil, phi)
			b2.Append(OpRet, nil)
			f.RecomputePreds()
			return &Module{Funcs: []*Func{f}}
		}, "b1: phi v2 references non-pred b2"},
		{"foreign target", func() *Module {
			f := &Func{Name: "f", Ret: i32}
			b0 := f.NewBlock()
			br(b0, retFunc("g").Entry()) // g's entry is also b0
			return &Module{Funcs: []*Func{f}}
		}, "b0: v0 targets foreign block"},
		{"nil operand", func() *Module {
			f := &Func{Name: "f", Ret: i32}
			f.NewBlock().Append(OpRet, nil, nil)
			return &Module{Funcs: []*Func{f}}
		}, "b0: v0 has nil operand"},
		{"value from another function", func() *Module {
			g := &Func{Name: "g", Ret: i32}
			gc := g.NewBlock().Append(OpConst, i32) // v0, like f's const
			f := &Func{Name: "f", Ret: i32}
			b0 := f.NewBlock()
			b0.Append(OpConst, i32)
			b0.Append(OpRet, nil, gc)
			return &Module{Funcs: []*Func{f}}
		}, "b0: v1 uses value from another function"},
		{"void operand", func() *Module {
			f := &Func{Name: "f", Ret: i32}
			b0 := f.NewBlock()
			c := b0.Append(OpConst, i32)
			st := b0.Append(OpStore, nil, c, c)
			b0.Append(OpRet, nil, st)
			return &Module{Funcs: []*Func{f}}
		}, "b0: v2 uses void value v1 (store)"},
		{"edge without pred entry", func() *Module {
			f := &Func{Name: "f", Ret: i32}
			b0, b1 := f.NewBlock(), f.NewBlock()
			br(b0, b1)
			b1.Append(OpRet, nil)
			return &Module{Funcs: []*Func{f}} // Preds never computed
		}, "edge b0->b1: 1 terminator edges, 0 pred entries"},
		{"pred entry from foreign block", func() *Module {
			f := &Func{Name: "f", Ret: i32}
			b0, b1 := f.NewBlock(), f.NewBlock()
			br(b0, b1)
			b1.Append(OpRet, nil)
			b1.Preds = []*Block{retFunc("g").Entry()} // g's b0, not f's
			return &Module{Funcs: []*Func{f}}
		}, "edge b0->b1: 1 pred entries, 0 terminator edges"},
		{"phi arg not in function", func() *Module {
			f := &Func{Name: "f", Ret: i32}
			b0, b1 := f.NewBlock(), f.NewBlock()
			c := b0.Append(OpConst, i32)
			br(b0, b1)
			// Claims b0 as its block and c's ID, but no block holds it.
			ghost := &Instr{Op: OpConst, ID: c.ID, Typ: i32, Block: b0}
			phi := b1.Append(OpPhi, i32, ghost)
			phi.Edges = []*Block{b0}
			b1.Append(OpRet, nil, phi)
			f.RecomputePreds()
			return &Module{Funcs: []*Func{f}}
		}, "phi v2 arg not in function"},
		{"phi def does not dominate edge", func() *Module {
			f := &Func{Name: "f", Ret: i32}
			b0, b1, b2, b3 := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
			cond := b0.Append(OpParam, i32)
			cb := b0.Append(OpCondBr, nil, cond)
			cb.Edges = []*Block{b1, b2}
			c := b1.Append(OpConst, i32)
			br(b1, b3)
			br(b2, b3)
			phi := b3.Append(OpPhi, i32, c, c)
			phi.Edges = []*Block{b1, b2}
			b3.Append(OpRet, nil, phi)
			f.RecomputePreds()
			return &Module{Funcs: []*Func{f}}
		}, "phi v5: def b1 does not dominate incoming edge from b2"},
		{"operand not in body", func() *Module {
			f := &Func{Name: "f", Ret: i32}
			b0 := f.NewBlock()
			c := b0.Append(OpConst, i32)
			ghost := &Instr{Op: OpConst, ID: c.ID, Typ: i32, Block: b0}
			b0.Append(OpRet, nil, ghost)
			return &Module{Funcs: []*Func{f}}
		}, "v1: operand v0 not in function body"},
		{"use before def", func() *Module {
			f := &Func{Name: "f", Ret: i32}
			b0 := f.NewBlock()
			add := b0.Append(OpBin, i32)
			c := b0.Append(OpConst, i32)
			add.Args = []*Instr{c, c}
			b0.Append(OpRet, nil, add)
			return &Module{Funcs: []*Func{f}}
		}, "b0: v1 used before defined (v0)"},
		{"def does not dominate use", func() *Module {
			f := &Func{Name: "f", Ret: i32}
			b0, b1, b2 := f.NewBlock(), f.NewBlock(), f.NewBlock()
			cond := b0.Append(OpParam, i32)
			cb := b0.Append(OpCondBr, nil, cond)
			cb.Edges = []*Block{b1, b2}
			v := b1.Append(OpConst, i32)
			br(b1, b2)
			b2.Append(OpRet, nil, v)
			f.RecomputePreds()
			return &Module{Funcs: []*Func{f}}
		}, "v2: def in b1 does not dominate use in b2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Verify(tc.build())
			if err == nil {
				t.Fatalf("verifier accepted the broken function; want %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error does not report %q:\n%v", tc.want, err)
			}
		})
	}
}

// TestRelocator pins the batched use-rewriter's contract: chains resolve to
// their final target, path compression keeps later chain extensions
// visible, self-maps are dropped, Reset empties it for reuse, values
// created after the first Add (IDs past any table sized then) relocate
// like the rest, and a value of another function never resolves through,
// or overwrites, a local value's mapping.
func TestRelocator(t *testing.T) {
	i32 := types.I32Type
	f := &Func{Name: "f", Ret: i32}
	b := f.NewBlock()
	v := make([]*Instr, 4)
	for i := range v {
		v[i] = b.Append(OpConst, i32)
	}
	sum := b.Append(OpBin, i32, v[0], v[1])
	ret := b.Append(OpRet, nil, sum)

	var r Relocator
	if !r.Empty() {
		t.Fatal("zero Relocator not empty")
	}
	r.Add(v[0], v[0]) // a self-map records nothing
	if !r.Empty() {
		t.Fatal("self-map recorded")
	}

	// Chain v0 -> v1 -> v2: both resolve to v2.
	r.Add(v[0], v[1])
	r.Add(v[1], v[2])
	if got := r.Resolve(v[0]); got != v[2] {
		t.Fatalf("Resolve(v0) = v%d, want v2", got.ID)
	}
	// v0 is now compressed to v2; extending the chain past v2 must still
	// reach v0.
	r.Add(v[2], v[3])
	if got := r.Resolve(v[0]); got != v[3] {
		t.Fatalf("after extending the chain, Resolve(v0) = v%d, want v3", got.ID)
	}
	// v3 -> v0 would close a cycle (v0 resolves to v3): dropped.
	r.Add(v[3], v[0])
	if got := r.Resolve(v[3]); got != v[3] {
		t.Fatalf("cycle recorded: Resolve(v3) = v%d", got.ID)
	}

	// A value of another function with a colliding ID has no mapping.
	other := &Func{Name: "g", Ret: i32}
	foreign := other.NewBlock().Append(OpConst, i32) // v0 of g
	if got := r.Resolve(foreign); got != foreign {
		t.Fatal("foreign value resolved through a local value's mapping")
	}

	r.Apply(f)
	if sum.Args[0] != v[3] || sum.Args[1] != v[3] {
		t.Fatalf("Apply: sum args v%d, v%d; want v3, v3", sum.Args[0].ID, sum.Args[1].ID)
	}

	r.Reset()
	if !r.Empty() || r.Resolve(v[0]) != v[0] {
		t.Fatal("Reset left mappings behind")
	}

	// Reuse with values created after the first Add.
	var late []*Instr
	for i := 0; i < 300; i++ {
		late = append(late, b.NewInstr(OpConst, i32))
	}
	hi := late[len(late)-1]
	r.Add(sum, hi)
	r.Add(late[0], v[2])
	if r.Resolve(sum) != hi || r.Resolve(late[0]) != v[2] {
		t.Fatal("values past the initial table size did not relocate")
	}
	r.Apply(f)
	if ret.Args[0] != hi {
		t.Fatalf("Apply after Reset: ret arg v%d, want v%d", ret.Args[0].ID, hi.ID)
	}

	// Reset zeroes the whole table however its mappings arrived: out of ID
	// order, and across a grow that copied the earlier ones.
	r.Add(late[250], v[1])
	r.Add(v[2], v[0])
	n := len(r.slots)
	past := b.NewInstr(OpConst, i32) // its ID is past the table
	r.Add(past, late[10])
	if len(r.slots) <= n {
		t.Fatalf("Add of v%d did not grow the %d-slot table", past.ID, n)
	}
	r.Add(late[5], v[3])
	r.Reset()
	if !r.Empty() {
		t.Fatal("Reset left the relocator non-empty")
	}
	for i, s := range r.slots[:cap(r.slots)] {
		if s != (relocSlot{}) {
			t.Fatalf("slot %d holds v%d after Reset", i, s.old.ID)
		}
	}

	// A Relocator serves one function at a time: recording a value of
	// another function whose ID is already mapped is a caller bug.
	r.Add(sum, hi)
	defer func() {
		if recover() == nil {
			t.Fatal("a colliding value of another function was recorded")
		}
	}()
	r.Add(&Instr{Op: OpConst, ID: sum.ID, Typ: i32, Block: other.Entry()}, foreign)
}

// TestVerifierPoolZero: a verifier back in its pool references no block
// or value, after functions that grow and then shrink (the pooled-scratch
// rule of internal/opt's scratch.go).
func TestVerifierPoolZero(t *testing.T) {
	for _, n := range []int{3, 9, 14, 6, 2} {
		var edges [][2]int
		for i := 0; i+1 < n; i++ {
			edges = append(edges, [2]int{i, i + 1}, [2]int{i, (i + 2) % n})
		}
		if err := VerifyFunc(buildCFG(n, edges)); err != nil {
			t.Fatalf("%d blocks: %v", n, err)
		}
	}
	states := pooltest.Drain(&verifierPool)
	if len(states) == 0 {
		t.Fatal("the verifier pool held no state after Verify ran")
	}
	for _, v := range states {
		if path, ok := pooltest.Pinned(v); ok {
			t.Errorf("pooled verifier references memory at %s", path)
		}
	}
}
