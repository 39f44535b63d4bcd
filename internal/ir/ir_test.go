package ir

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"dcelens/internal/pool/pooltest"
	"dcelens/internal/types"
)

// buildCFG constructs a function with the given edges (block 0 is entry).
// Blocks with no listed successors get a ret; one successor a br; two a
// condbr on a parameter-derived value.
func buildCFG(nblocks int, edges [][2]int) *Func {
	f := &Func{Name: "t", Ret: types.I32Type}
	blocks := make([]*Block, nblocks)
	for i := 0; i < nblocks; i++ {
		blocks[i] = f.NewBlock()
	}
	succs := make([][]int, nblocks)
	for _, e := range edges {
		succs[e[0]] = append(succs[e[0]], e[1])
	}
	// One shared condition value in the entry block.
	cond := blocks[0].Append(OpParam, types.I32Type)
	for i, b := range blocks {
		switch len(succs[i]) {
		case 0:
			z := b.Append(OpConst, types.I32Type)
			b.Append(OpRet, nil, z)
		case 1:
			br := b.Append(OpBr, nil)
			br.Edges = []*Block{blocks[succs[i][0]]}
		default:
			cb := b.Append(OpCondBr, nil, cond)
			cb.Edges = []*Block{blocks[succs[i][0]], blocks[succs[i][1]]}
		}
	}
	f.RecomputePreds()
	return f
}

// naiveDominators computes dominators by the textbook dataflow definition,
// as an oracle for the Cooper-Harvey-Kennedy implementation.
func naiveDominators(f *Func) map[*Block]map[*Block]bool {
	reach := f.Reachable()
	var blocks []*Block
	for _, b := range f.Blocks {
		if reach[b.ID] {
			blocks = append(blocks, b)
		}
	}
	dom := map[*Block]map[*Block]bool{}
	all := map[*Block]bool{}
	for _, b := range blocks {
		all[b] = true
	}
	for _, b := range blocks {
		if b == f.Entry() {
			dom[b] = map[*Block]bool{b: true}
		} else {
			cp := map[*Block]bool{}
			for k := range all {
				cp[k] = true
			}
			dom[b] = cp
		}
	}
	for changed := true; changed; {
		changed = false
		for _, b := range blocks {
			if b == f.Entry() {
				continue
			}
			var inter map[*Block]bool
			for _, p := range b.Preds {
				if !reach[p.ID] {
					continue
				}
				if inter == nil {
					inter = map[*Block]bool{}
					for k := range dom[p] {
						inter[k] = true
					}
				} else {
					for k := range inter {
						if !dom[p][k] {
							delete(inter, k)
						}
					}
				}
			}
			if inter == nil {
				inter = map[*Block]bool{}
			}
			inter[b] = true
			if len(inter) != len(dom[b]) {
				dom[b] = inter
				changed = true
				continue
			}
			for k := range inter {
				if !dom[b][k] {
					dom[b] = inter
					changed = true
					break
				}
			}
		}
	}
	return dom
}

// TestDominatorsAgainstNaive compares the fast dominator tree with the
// naive fixpoint on random CFGs.
func TestDominatorsAgainstNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(10)
		var edges [][2]int
		for i := 0; i < n; i++ {
			// 0-2 successors per block, anywhere (cycles allowed).
			for k := 0; k < r.Intn(3); k++ {
				edges = append(edges, [2]int{i, r.Intn(n)})
			}
		}
		fn := buildCFG(n, edges)
		dt := Dominators(fn)
		naive := naiveDominators(fn)
		reach := fn.Reachable()
		for _, a := range fn.Blocks {
			for _, b := range fn.Blocks {
				if !reach[a.ID] || !reach[b.ID] {
					continue
				}
				want := naive[b][a] // a dominates b
				if got := dt.Dominates(a, b); got != want {
					t.Logf("seed %d: Dominates(b%d, b%d) = %v, want %v", seed, a.ID, b.ID, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReversePostorder(t *testing.T) {
	// Diamond: 0 -> 1,2 -> 3.
	f := buildCFG(4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	rpo := f.ReversePostorder()
	pos := map[*Block]int{}
	for i, b := range rpo {
		pos[b] = i
	}
	if rpo[0] != f.Entry() {
		t.Error("entry must come first")
	}
	if pos[f.Blocks[3]] != 3 {
		t.Error("join must come last in a diamond")
	}
}

func TestNaturalLoops(t *testing.T) {
	// 0 -> 1; 1 -> 2; 2 -> 1 (loop); 1 -> 3 (exit).
	f := buildCFG(4, [][2]int{{0, 1}, {1, 2}, {1, 3}, {2, 1}})
	dt := Dominators(f)
	loops := NaturalLoops(f, dt)
	if len(loops) != 1 {
		t.Fatalf("want 1 loop, got %d", len(loops))
	}
	l := loops[0]
	if l.Header != f.Blocks[1] {
		t.Errorf("header b%d, want b1", l.Header.ID)
	}
	if !l.Contains(f.Blocks[2]) || l.Contains(f.Blocks[3]) {
		t.Errorf("loop body wrong: %v", l.Blocks)
	}
	if len(l.Latches) != 1 || l.Latches[0] != f.Blocks[2] {
		t.Errorf("latches wrong")
	}
	exits := l.Exits()
	if len(exits) != 1 || exits[0][1] != f.Blocks[3] {
		t.Errorf("exits wrong: %v", exits)
	}
}

func TestVerifyCatchesBrokenSSA(t *testing.T) {
	f := &Func{Name: "bad", Ret: types.I32Type}
	b0 := f.NewBlock()
	b1 := f.NewBlock()
	b2 := f.NewBlock()
	cond := b0.Append(OpParam, types.I32Type)
	cb := b0.Append(OpCondBr, nil, cond)
	cb.Edges = []*Block{b1, b2}
	// v defined only on the b1 path...
	v := b1.Append(OpConst, types.I32Type)
	br := b1.Append(OpBr, nil)
	br.Edges = []*Block{b2}
	// ...but used in b2, which is also reachable via b0 directly.
	b2.Append(OpRet, nil, v)
	f.RecomputePreds()

	m := &Module{Funcs: []*Func{f}}
	if err := Verify(m); err == nil {
		t.Fatal("verifier accepted a dominance violation")
	}
}

func TestVerifyCatchesPhiMismatch(t *testing.T) {
	f := &Func{Name: "bad", Ret: types.I32Type}
	b0 := f.NewBlock()
	b1 := f.NewBlock()
	c := b0.Append(OpConst, types.I32Type)
	br := b0.Append(OpBr, nil)
	br.Edges = []*Block{b1}
	phi := b1.Append(OpPhi, types.I32Type, c, c) // two entries, one pred
	phi.Edges = []*Block{b0, b0}
	b1.Append(OpRet, nil, phi)
	f.RecomputePreds()
	if err := Verify(&Module{Funcs: []*Func{f}}); err == nil {
		t.Fatal("verifier accepted a phi/pred mismatch")
	}
}

func TestEdgeEditing(t *testing.T) {
	f := buildCFG(3, [][2]int{{0, 1}, {0, 2}, {1, 2}})
	b0, b1, b2 := f.Blocks[0], f.Blocks[1], f.Blocks[2]
	// Add a phi in b2 over its two preds.
	v0 := b0.Instrs[0] // the param
	phi := b2.NewInstr(OpPhi, types.I32Type)
	phi.Args = []*Instr{v0, v0}
	phi.Edges = []*Block{b0, b1}
	b2.Instrs = append([]*Instr{phi}, b2.Instrs...)
	if err := VerifyFunc(f); err != nil {
		t.Fatalf("setup invalid: %v", err)
	}
	// Remove the edge b1 -> b2: the phi must shrink.
	t1 := b1.Term()
	t1.Op = OpRet
	t1.Edges = nil
	RemoveEdge(b1, b2)
	if len(phi.Args) != 1 || phi.Edges[0] != b0 {
		t.Fatalf("RemoveEdge did not trim the phi: %v", phi.Edges)
	}
	if err := VerifyFunc(f); err != nil {
		t.Fatalf("after RemoveEdge: %v", err)
	}
}

func TestReplaceAllUsesAndCount(t *testing.T) {
	f := &Func{Name: "t", Ret: types.I32Type}
	b := f.NewBlock()
	a := b.Append(OpConst, types.I32Type)
	c := b.Append(OpConst, types.I32Type)
	add := b.Append(OpBin, types.I32Type, a, a)
	b.Append(OpRet, nil, add)
	if CountUses(a) != 2 {
		t.Fatalf("CountUses = %d, want 2", CountUses(a))
	}
	ReplaceAllUses(a, c)
	if CountUses(a) != 0 || CountUses(c) != 2 {
		t.Fatal("ReplaceAllUses failed")
	}
}

// TestInstrSize pins the instruction layout at 96 bytes, a Go size class.
// A finished campaign holds hundreds of thousands of instructions and
// every compile trie fork copies a module's, so a field that pushes the
// struct past 96 bytes costs each of them the next size class, 112 bytes.
func TestInstrSize(t *testing.T) {
	if got := unsafe.Sizeof(Instr{}); got != 96 {
		t.Fatalf("ir.Instr is %d bytes, want 96: the next size class is 112 bytes, so a new field must share a word an existing field already uses", got)
	}
}

// TestClonerPoolZero: a module cloner back in its pool references no
// block or value of either module, after modules whose functions grow and
// then shrink (the pooled-scratch rule of internal/opt's scratch.go).
func TestClonerPoolZero(t *testing.T) {
	for _, n := range []int{3, 9, 14, 6, 2} {
		var edges [][2]int
		for i := 0; i+1 < n; i++ {
			edges = append(edges, [2]int{i, i + 1}, [2]int{i, (i + 2) % n})
		}
		m := &Module{Funcs: []*Func{buildCFG(n, edges), buildCFG(1, nil)}}
		if got, want := m.Clone().String(), m.String(); got != want {
			t.Fatalf("%d blocks: the clone prints\n%s\nthe original\n%s", n, got, want)
		}
	}
	states := pooltest.Drain(&clonerPool)
	if len(states) == 0 {
		t.Fatal("the cloner pool held no state after Clone ran")
	}
	for _, c := range states {
		if path, ok := pooltest.Pinned(c); ok {
			t.Errorf("pooled cloner references memory at %s", path)
		}
	}
}
