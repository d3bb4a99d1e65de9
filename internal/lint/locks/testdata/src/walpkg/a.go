// Package walpkg exercises the built-in hierarchy (storeShard.mu <
// clientRecord.mu < WAL.closedMu) and the pinned external boundary:
// auth.Journal methods and WAL entry points acquire WAL.closedMu.
package walpkg

import "sync"

type storeShard struct {
	mu      sync.RWMutex
	clients map[string]*clientRecord
}

type clientRecord struct {
	mu     sync.Mutex
	nextID uint64
}

// Journal mirrors auth.Journal: no in-package implementation, so the
// acquisition is pinned by the boundary table, not the call graph.
type Journal interface {
	JournalBurn(id string, nextID uint64) error
}

// IssueInOrder is the real server shape: record lock, then journal
// (closedMu). In order; silent.
func IssueInOrder(rec *clientRecord, j Journal) error {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.nextID++
	return j.JournalBurn("c", rec.nextID)
}

// lockShard models a store mutation.
func lockShard(sh *storeShard) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
}

// CreateWhileLocked inverts the shard/record order through a call.
func CreateWhileLocked(sh *storeShard, rec *clientRecord) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	lockShard(sh) // want "call to lockShard may acquire storeShard.mu while clientRecord.mu is held"
}

type WAL struct {
	closedMu sync.RWMutex
	closed   bool
}

// CloseTwice re-enters closedMu through the pinned boundary: Close on
// a WAL acquires WAL.closedMu. The burn is journaled outside any
// record's critical section, too.
func CloseTwice(w *WAL, j Journal) error {
	w.closedMu.Lock()
	defer w.closedMu.Unlock()
	return j.JournalBurn("c", 1) // want "call to JournalBurn may acquire WAL.closedMu, which is already held" "JournalBurn must be called inside the record critical section"
}

// ShardThenRecord is the declared order; silent.
func ShardThenRecord(sh *storeShard, rec *clientRecord) {
	sh.mu.RLock()
	rec.mu.Lock()
	rec.nextID++
	rec.mu.Unlock()
	sh.mu.RUnlock()
}

// RecordThenShardDirect inverts it directly, no call needed.
func RecordThenShardDirect(sh *storeShard, rec *clientRecord) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	sh.mu.RLock() // want "acquires storeShard.mu while holding clientRecord.mu"
	defer sh.mu.RUnlock()
}
