// Package order seeds one lock-order violation: a directive-declared
// hierarchy inverted at the acquisition site.
//
//lint:lockorder Outer.mu < Inner.mu
package order

import "sync"

type Outer struct{ mu sync.Mutex }

type Inner struct{ mu sync.Mutex }

func Invert(o *Outer, i *Inner) {
	i.mu.Lock()
	defer i.mu.Unlock()
	o.mu.Lock() // inversion: Outer.mu ranks below Inner.mu
	defer o.mu.Unlock()
}
