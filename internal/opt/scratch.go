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
// all under one rule: a pooled table is zero beyond its length at all
// times. So resize clears only the length the last user left, a worklist
// zeroes each slot it pops, a table that shrinks while held zeroes the
// slots it drops, and before a state returns to its pool every table that
// holds pointers is cleared over exactly its length and the state drops
// the function and options it served. A pooled state therefore never pins
// a finished module, and a unit pays to clear only the slots it wrote,
// not a table's capacity, which tracks the largest function the state
// ever served. While the collector marks, every pointer slot cleared also
// pays a write barrier. Campaign workers compile concurrently and share
// the pools; sync.Pool hands each state to one goroutine at a time.

// resize returns s with length n and every element zero, reusing its
// backing array when it is large enough. A new array gets a quarter more
// room: a function only grows while its module compiles, and the next
// pass instance on it should not reallocate.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/4)
	}
	clear(s) // beyond its length, s is already zero
	return s[:n]
}

// shrink returns s[:n], zeroing the slots it drops.
func shrink[T any](s []T, n int) []T {
	clear(s[n:])
	return s[:n]
}

// pop removes and returns the last element of the worklist *s, zeroing
// its slot.
func pop[T any](s *[]T) T {
	n := len(*s) - 1
	v := (*s)[n]
	var zero T
	(*s)[n] = zero
	*s = (*s)[:n]
	return v
}

// relocPool recycles the Relocators of passes that keep no other pooled
// state; putRelocator resets one, zeroing its occupied slots, before it
// returns.
var relocPool = sync.Pool{New: func() any { return new(ir.Relocator) }}

func getRelocator() *ir.Relocator { return relocPool.Get().(*ir.Relocator) }

func putRelocator(r *ir.Relocator) {
	r.Reset()
	relocPool.Put(r)
}
