// Fixture for the atomicfield analyzer: a field accessed via sync/atomic
// must never be read or written plainly elsewhere.
package atomicfield

import "sync/atomic"

type counters struct {
	hits  int64
	reads int64
	typed atomic.Int64
	gauge atomic.Uint64
	ptr   *atomic.Int64 // pointer to an atomic: the pointer itself copies freely
}

// bump establishes that hits is an atomic field.
func bump(c *counters) {
	atomic.AddInt64(&c.hits, 1)
}

func readPlain(c *counters) int64 {
	return c.hits // want `field hits is accessed via sync/atomic elsewhere`
}

func writePlain(c *counters) {
	c.hits = 0 // want `field hits is accessed via sync/atomic elsewhere`
}

func readAtomic(c *counters) int64 {
	return atomic.LoadInt64(&c.hits)
}

// launder takes the address outside an atomic call: treated as a plain
// access, because the analysis cannot follow the pointer.
func launder(c *counters) *int64 {
	return &c.hits // want `field hits is accessed via sync/atomic elsewhere`
}

// reads is never touched atomically: plain access everywhere is fine.
func plainOnly(c *counters) int64 {
	c.reads++
	return c.reads
}

// Typed atomics: method calls and address-taking are the protocol.
func typedOK(c *counters) int64 {
	c.typed.Store(1)
	c.gauge.Add(2)
	return c.typed.Load()
}

func typedPtrOK(c *counters) *atomic.Int64 {
	return &c.typed
}

func typedCopy(c *counters) int64 {
	v := c.typed // want `field typed has atomic type Int64 and must be used through its methods`
	return v.Load()
}

func typedAssign(c *counters, v atomic.Int64) {
	c.typed = v // want `field typed has atomic type Int64 and must be used through its methods`
}

// The pointer-to-atomic field copies as a plain pointer; the pointee is
// still driven through methods.
func ptrFieldOK(c *counters) int64 {
	p := c.ptr
	return p.Load()
}

// Suppression: constructors may initialize before the value is shared.
func fresh() *counters {
	c := &counters{}
	c.hits = 0 //het:allow atomicfield -- fixture: not yet shared with any other goroutine
	return c
}

// A field declared through an alias of an atomic type is still that type.
type aliasedInt = atomic.Int64

type viaAlias struct{ n aliasedInt }

func aliasCopy(a *viaAlias) aliasedInt {
	return a.n // want `field n has atomic type Int64 and must be used through its methods`
}
