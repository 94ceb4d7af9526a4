// Package lockorder is the fixture for the lockorder analyzer: held-lock
// method re-entry.
package lockorder

import "sync"

// Counter guards n with mu.
type Counter struct {
	mu sync.Mutex
	n  int
}

// Incr acquires the mutex.
func (c *Counter) Incr() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

// incrLocked is the properly layered variant: callers hold the mutex.
func (c *Counter) incrLocked() { c.n++ }

// DoubleLock deadlocks: Incr re-acquires the mutex DoubleLock holds.
func (c *Counter) DoubleLock() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.Incr() // want `while c.mu is held`
}

// Transitive deadlocks through a chain: Wrap calls Incr.
func (c *Counter) Wrap() { c.Incr() }

func (c *Counter) TransitiveDoubleLock() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.Wrap() // want `while c.mu is held`
}

// ReleasedFirst is fine: the mutex is released before the call.
func (c *Counter) ReleasedFirst() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	c.Incr()
}

// LayeredLocked is fine: incrLocked never locks.
func (c *Counter) LayeredLocked() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.incrLocked()
}

// IgnoredDoubleLock is suppressed with a reason.
func (c *Counter) IgnoredDoubleLock() {
	c.mu.Lock()
	defer c.mu.Unlock()
	//lint:ignore lockorder fixture: demonstrates reasoned suppression
	c.Incr() // want-suppressed "while c.mu is held"
}
