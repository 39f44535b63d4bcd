package opt

import (
	"sync"

	"dcelens/internal/ir"
)

// Pooled pass scratch. The hot function passes (sccp, dce, gvn, vrp,
// licm) run once per function per pass instance, many times per compile
// unit, and each needs dense-ID tables as large as the function. Each
// keeps its tables in one state value recycled through its own sync.Pool,
// and the passes with no other pooled state share a pool of Relocators,
// all under one rule: before a state returns to its pool, every table that
// holds pointers is cleared over its full capacity, and the state keeps no
// reference to the function or options it served. A pooled state
// therefore never pins a finished module, and a state taken from the pool
// needs only its tables sized. Campaign workers compile concurrently and
// share the pools; sync.Pool hands each state to one goroutine at a time.

// resize returns s with length n and every element zero, reusing its
// backing array when it is large enough. A new array gets a quarter more
// room: a function only grows while its module compiles, and the next
// pass instance on it should not reallocate.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/4)
	}
	s = s[:n]
	clear(s)
	return s
}

// clearAll zeroes s over its full capacity and returns it emptied.
func clearAll[T any](s []T) []T {
	clear(s[:cap(s)])
	return s[:0]
}

// relocPool recycles the Relocators of passes that keep no other pooled
// state; putRelocator resets one, zeroing its table, before it returns.
var relocPool = sync.Pool{New: func() any { return new(ir.Relocator) }}

func getRelocator() *ir.Relocator { return relocPool.Get().(*ir.Relocator) }

func putRelocator(r *ir.Relocator) {
	r.Reset()
	relocPool.Put(r)
}
