// Package pooltest checks the pooled-scratch rule in tests: a state back
// in its pool references no memory (internal/opt's scratch.go states the
// rule).
package pooltest

import (
	"fmt"
	"reflect"

	"dcelens/internal/pool"
)

// Drain takes every state out of p.
func Drain[T any](p *pool.Pool[T]) []*T {
	newState := p.New
	p.New = nil // Get returns nil once the pool is empty
	defer func() { p.New = newState }()
	var states []*T
	for x := p.Get(); x != nil; x = p.Get() {
		states = append(states, x)
	}
	return states
}

// Pinned returns the path of the first slot in the state x points to that
// references memory: a non-nil pointer, interface, func or channel, a
// non-empty string or map, looking through structs, arrays, and every
// element of a slice up to its capacity.
func Pinned(x any) (string, bool) {
	return pinnedSlot(reflect.ValueOf(x).Elem())
}

func pinnedSlot(v reflect.Value) (string, bool) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface, reflect.Func, reflect.Chan, reflect.UnsafePointer:
		return "", !v.IsNil()
	case reflect.Map, reflect.String:
		return "", v.Len() > 0
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if p, ok := pinnedSlot(v.Field(i)); ok {
				return "." + v.Type().Field(i).Name + p, true
			}
		}
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice {
			v = v.Slice(0, v.Cap())
		}
		for i := 0; i < v.Len(); i++ {
			if p, ok := pinnedSlot(v.Index(i)); ok {
				return fmt.Sprintf("[%d]%s", i, p), true
			}
		}
	}
	return "", false
}
