// Package orderpkg exercises the lock order: a custom two-level hierarchy
// on top of the built-in one, direct inversions, call-graph
// inversions, interface devirtualisation, re-entry, and the shapes
// that must stay silent.
//
//lint:lockorder Table.mu < Row.mu
package orderpkg

import "sync"

type Table struct {
	mu   sync.RWMutex
	rows map[string]*Row
}

type Row struct {
	mu sync.Mutex
	n  int
}

// InOrder acquires table before row: the declared order. No finding.
func InOrder(t *Table, r *Row) {
	t.mu.Lock()
	r.mu.Lock()
	r.n++
	r.mu.Unlock()
	t.mu.Unlock()
}

// Inverted acquires the row first, then the table.
func Inverted(t *Table, r *Row) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t.mu.Lock() // want "acquires Table.mu while holding Row.mu"
	defer t.mu.Unlock()
}

// Reenter locks a row while a row is already held.
func Reenter(a, b *Row) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock() // want "already holding Row.mu"
	defer b.mu.Unlock()
}

// lockTable is a helper whose acquisition must propagate to callers.
func lockTable(t *Table) {
	t.mu.Lock()
	defer t.mu.Unlock()
}

// ViaCall holds a row and calls a function that takes the table lock:
// the inversion is only visible interprocedurally.
func ViaCall(t *Table, r *Row) {
	r.mu.Lock()
	defer r.mu.Unlock()
	lockTable(t) // want "call to lockTable may acquire Table.mu while Row.mu is held"
}

// deepLockTable reaches the table lock through two hops.
func deepLockTable(t *Table) { lockTable(t) }

// ViaDeepCall propagates through a two-hop chain.
func ViaDeepCall(t *Table, r *Row) {
	r.mu.Lock()
	defer r.mu.Unlock()
	deepLockTable(t) // want "call to deepLockTable may acquire Table.mu while Row.mu is held"
}

// Locker is devirtualised to *Table (its only in-package
// implementation), so the inversion below is caught through the
// interface.
type Locker interface {
	LockIt()
}

func (t *Table) LockIt() {
	t.mu.Lock()
	defer t.mu.Unlock()
}

// ViaInterface calls through the interface while holding a row.
func ViaInterface(l Locker, r *Row) {
	r.mu.Lock()
	defer r.mu.Unlock()
	l.LockIt() // want "call to LockIt may acquire Table.mu while Row.mu is held"
}

// ReleasedFirst explicitly unlocks the row before taking the table:
// the sections do not nest, so no finding.
func ReleasedFirst(t *Table, r *Row) {
	r.mu.Lock()
	r.n++
	r.mu.Unlock()
	t.mu.Lock()
	t.mu.Unlock()
}

// SpawnTable launches the table acquisition on its own goroutine: a
// Go edge, which runs on a fresh stack and must not propagate.
func SpawnTable(t *Table, r *Row) {
	r.mu.Lock()
	defer r.mu.Unlock()
	go lockTable(t)
}

// Unranked locks are outside every hierarchy and never reported.
type Misc struct {
	mu sync.Mutex
	v  int
}

func UnrankedNesting(m *Misc, r *Row) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m.mu.Lock()
	m.v++
	m.mu.Unlock()
}
