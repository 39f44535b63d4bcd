// Package pool recycles the scratch states of the optimizer's passes and
// of the analyses they call across the compile units of a process.
package pool

import "sync"

// A Pool is a free list of states, safe for concurrent use. Unlike a
// sync.Pool it keeps what it is given for the life of the process: a
// sync.Pool empties at every other garbage collection, and its Get cannot
// take a state another P holds privately, so at a campaign's collection
// rate (several collections a compile unit) it kept handing out fresh
// states whose tables then regrew to the size of each function. A Pool
// holds as many states as were ever in use at once, each sized for the
// largest function it served.
type Pool[T any] struct {
	// New makes a state when the pool is empty; if New is nil, Get then
	// returns nil.
	New func() *T

	mu   sync.Mutex
	free []*T
}

// Get takes a state from the pool, or makes one with New.
func (p *Pool[T]) Get() *T {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		x := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return x
	}
	p.mu.Unlock()
	if p.New == nil {
		return nil
	}
	return p.New()
}

// Put returns x to the pool; the caller keeps no reference to it.
func (p *Pool[T]) Put(x *T) {
	p.mu.Lock()
	p.free = append(p.free, x)
	p.mu.Unlock()
}
