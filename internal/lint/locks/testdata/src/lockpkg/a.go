// Fixture for the locks analyzer: mutex-guard conventions and the journal
// critical-section rule.
package lockpkg

import "sync"

type journal interface {
	JournalBurn(id string)
	JournalEnroll(id string)
	JournalCounter(id string, n uint64)
}

// record: a bare mu guards every field declared after it.
type record struct {
	mu    sync.Mutex
	key   []byte
	count int
	done  chan struct{} // channels synchronise themselves: unguarded
}

// server: randMu prefix-guards rand; stats has no guard.
type server struct {
	randMu sync.Mutex
	rand   int
	stats  int
}

func newRecord() *record { return &record{} }

func readBad(r *record) int {
	return r.count // want "field lockpkg.record.count is guarded by mu"
}

func writeBad(r *record) {
	r.key = nil // want "guarded by mu"
}

func readGood(r *record) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// bumpLocked: the *Locked suffix asserts the caller holds r.mu.
func (r *record) bumpLocked() {
	r.count++
}

func freshOK() *record {
	r := newRecord()
	r.count = 1 // unpublished: constructor-fresh local
	lit := &record{}
	lit.key = []byte("k")
	return r
}

func chanOK(r *record) {
	close(r.done) // self-synced type, no guard
}

func closureOK(r *record) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := func() int { return r.count } // inherits the enclosing lock
	return f()
}

func closureBad(r *record) func() int {
	return func() int {
		return r.count // want "guarded by mu"
	}
}

func randBad(s *server) int {
	return s.rand // want "guarded by randMu"
}

func randGood(s *server) int {
	s.randMu.Lock()
	defer s.randMu.Unlock()
	return s.rand
}

func statsOK(s *server) int {
	return s.stats // not guarded by randMu: prefix does not match
}

func burnBad(r *record, j journal) {
	j.JournalBurn("x") // want "JournalBurn must be called inside the record critical section"
}

func burnAfterUnlock(r *record, j journal) {
	r.mu.Lock()
	r.mu.Unlock()
	j.JournalBurn("x") // want "JournalBurn must be called inside the record critical section"
}

func burnGood(r *record, j journal) {
	r.mu.Lock()
	j.JournalBurn("x")
	r.mu.Unlock()
}

func burnDeferOK(r *record, j journal) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j.JournalCounter("x", 1)
}

// issueLocked: journal calls in *Locked functions rely on the caller's
// critical section.
func (r *record) issueLocked(j journal) {
	j.JournalBurn("x")
}

func enrollOK(j journal) {
	j.JournalEnroll("x") // lifecycle event: exempt by design
}
