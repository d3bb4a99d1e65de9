// Package locks seeds one lock-guard violation: a guarded field read
// without the mutex.
package locks

import "sync"

type Counter struct {
	mu sync.Mutex
	n  int
}

func Peek(c *Counter) int {
	return c.n // unguarded read of a mu-guarded field
}
