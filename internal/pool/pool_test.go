package pool

import (
	"sync"
	"testing"
)

// TestPool: Get hands back what Put returned, last in first out, makes a
// state with New once the pool is empty, and returns nil then when New is
// nil; concurrent users never share a state.
func TestPool(t *testing.T) {
	made := 0
	p := Pool[int]{New: func() *int { made++; return new(int) }}
	a, b := p.Get(), p.Get()
	if made != 2 || a == b {
		t.Fatalf("two Gets from an empty pool made %d states", made)
	}
	p.Put(a)
	p.Put(b)
	if p.Get() != b || p.Get() != a || made != 2 {
		t.Fatal("Get did not hand back the states Put returned, last first")
	}
	p.New = nil
	if x := p.Get(); x != nil {
		t.Fatalf("Get from an empty pool without New = %v, want nil", x)
	}

	var q Pool[int]
	q.New = func() *int { return new(int) }
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				x := q.Get()
				if *x != 0 {
					t.Error("a state was handed to two users at once")
					return
				}
				*x = 1
				*x = 0
				q.Put(x)
			}
		}()
	}
	wg.Wait()
}
