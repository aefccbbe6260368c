// Package lib exercises the atomicfield analyzer: calls to the
// package-level sync/atomic functions fire, as do assignments to and
// value copies of sync/atomic-typed fields; method calls on those
// types, address-of and an atomic.Int64 behind an int32 stay quiet.
package lib

import "sync/atomic"

// counter drives its n field through old-style sync/atomic calls.
type counter struct {
	n int64
}

// BadAdd increments through a package-level sync/atomic function.
func (c *counter) BadAdd() {
	atomic.AddInt64(&c.n, 1)
}

// BadLoad reads through one.
func (c *counter) BadLoad() int64 {
	return atomic.LoadInt64(&c.n)
}

// gauge uses the new-style atomic.Int64, whose embedded align64 keeps
// it safe at any offset — the int32 in front is not a finding.
type gauge struct {
	pad int32
	v   atomic.Int64
}

// BadAssign overwrites the atomic value wholesale.
func (g *gauge) BadAssign() {
	g.v = atomic.Int64{}
}

// BadCopy reads the atomic value out by value.
func (g *gauge) BadCopy() atomic.Int64 {
	return g.v
}

// GoodMethod drives the field through its method set: a sync/atomic
// function, but a method, not a package-level one.
func (g *gauge) GoodMethod() int64 { return g.v.Add(1) }

// GoodStore likewise.
func (g *gauge) GoodStore(x int64) { g.v.Store(x) }

// GoodPointer hands out the address; pointer use is sanctioned.
func (g *gauge) GoodPointer() *atomic.Int64 { return &g.v }
