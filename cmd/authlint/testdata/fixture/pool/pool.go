// Package pool seeds exactly one pooled-buffer violation: a buffer
// from the wire pool that escapes the function on one branch without
// reaching wire.PutBuf.
package pool

import "repro/internal/wire"

// Use leaks the pooled buffer when fast is set: the early return skips
// the put.
func Use(fast bool) {
	e := wire.GetBuf()
	if fast {
		return
	}
	wire.PutBuf(e)
}
