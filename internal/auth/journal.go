package auth

import (
	"sort"

	"repro/internal/crp"
	"repro/internal/errormap"
	"repro/internal/mapkey"
)

// Durability hooks. The server's in-memory mutations — enrollments,
// pair burns, key rotations, challenge-counter advances — can be
// journaled to a write-ahead log so that a crash between snapshots
// loses nothing the protocol already committed to. The
// critical invariant is the no-reuse registry: a burned pair the
// server forgets can be reissued, and the challenge an attacker
// recorded before the crash replays cleanly (the paper's Section 6.7
// model-building attack compounds the leak). The journal is therefore
// written at exactly the points the store's records mutate,
// inside the same per-record critical section, so the log's
// per-client order matches the in-memory mutation order.
//
// Failure semantics: the in-memory mutation is applied first, the
// journal written second, both under the record lock. If the journal
// write fails the operation returns a retryable CodeUnavailable
// (unavailableErr: errors.Is(err, ErrUnavailable) holds) and the
// in-memory state keeps the mutation — for burns that is the
// conservative direction (pairs die without a challenge ever leaving
// the server; nothing replayable exists), and for enrollments the
// record is backed out. The reverse order would risk a journaled mutation that
// never happened in memory, which replay would then invent.

// Journal receives a durable record of every enrollment-database
// mutation before the mutating call returns. Implementations must be
// safe for concurrent use and must not call back into the Server.
// *wal.WAL implements this interface.
type Journal interface {
	// JournalEnroll records a new client: its marshalled error map,
	// initial remap key, and reserved voltage planes.
	JournalEnroll(id string, mapBytes []byte, key [32]byte, reserved []int) error
	// JournalBurn records the physical pairs consumed by one issued
	// challenge, plus the challenge counter and per-key CRP budget
	// after the issue.
	JournalBurn(id string, pairs []crp.PairBit, nextID uint64, crpsSinceRemap int) error
	// JournalRemap records a committed key rotation.
	JournalRemap(id string, newKey [32]byte) error
	// JournalCounter records a counter advance that burns no pairs
	// (key-update challenges draw from reserved planes).
	JournalCounter(id string, nextID uint64) error
}

// AttachJournal installs the journal on a running server. Recovery
// attaches it only after snapshot load and log replay, so replayed
// mutations are not re-journaled. Not safe to call concurrently with
// traffic.
func (s *Server) AttachJournal(j Journal) { s.journal = j }

// Replay appliers. Recovery loads the latest snapshot and then feeds
// the journal tail through these. Every applier is idempotent —
// compaction may leave the snapshot ahead of the earliest surviving
// log records, so a record can describe a mutation the snapshot
// already contains — and none of them re-journal.

// ReplayEnroll reinstates a journaled enrollment, last-wins. An
// enroll record for an existing client replaces it: a journal append
// can fail transiently while its frame still reaches the disk (fsync
// reported an error after the write), in which case the server backs
// the enrollment out and the caller re-enrolls — leaving two enroll
// records with different keys, of which only the later one was ever
// handed to a device. Overwriting is safe against snapshots too,
// because the journal's per-client order means every mutation newer
// than a replayed enroll record replays after it.
func (s *Server) ReplayEnroll(id ClientID, mapBytes []byte, key mapkey.Key, reserved []int) error {
	if id == "" {
		return authErrf(CodeInvalidRequest, id, "auth: replay enroll with empty id")
	}
	m, err := errormap.UnmarshalMap(mapBytes)
	if err != nil {
		return authErrf(CodeInvalidRequest, id, "auth: replay enroll %q: %v", id, err)
	}
	res := make(map[int]bool, len(reserved))
	for _, v := range reserved {
		if m.Plane(v) == nil {
			return authErrf(CodeBadPlane, id, "%w: replayed reserve of %d mV", ErrBadPlane, v)
		}
		res[v] = true
	}
	s.store.Delete(id)
	s.store.Create(id, newClientRecord(m, key, res))
	return nil
}

// ReplayBurn reinstates consumed pairs and the post-issue counters.
// Pairs already present in the registry are left marked (set union);
// the counters are plain assignments, correct because the journal
// preserves per-client mutation order.
func (s *Server) ReplayBurn(id ClientID, pairs []crp.PairBit, nextID uint64, crpsSinceRemap int) error {
	rec, ok := s.store.Get(id)
	if !ok {
		return authErrf(CodeUnknownClient, id, "%w: burn replayed for %q", ErrUnknownClient, id)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.registry.Mark(pairs)
	if nextID > rec.nextID {
		rec.nextID = nextID
	}
	rec.crpsSinceRemap = crpsSinceRemap
	return nil
}

// ReplayRemap reinstates a committed key rotation. Rotating to the
// key the record carries is idempotent: replaying it twice, or over a
// snapshot that already holds the new key, converges on the same key
// (the caches it invalidates rebuild lazily).
func (s *Server) ReplayRemap(id ClientID, key mapkey.Key) error {
	rec, ok := s.store.Get(id)
	if !ok {
		return authErrf(CodeUnknownClient, id, "%w: remap replayed for %q", ErrUnknownClient, id)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.rotateKeyLocked(key)
	return nil
}

// ReplayCounter reinstates a challenge-counter advance.
func (s *Server) ReplayCounter(id ClientID, nextID uint64) error {
	rec, ok := s.store.Get(id)
	if !ok {
		return authErrf(CodeUnknownClient, id, "%w: counter replayed for %q", ErrUnknownClient, id)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if nextID > rec.nextID {
		rec.nextID = nextID
	}
	return nil
}

// journalReserved flattens a reserved-plane set into the sorted slice
// the journal record carries.
func journalReserved(reserved map[int]bool) []int {
	if len(reserved) == 0 {
		return nil
	}
	out := make([]int, 0, len(reserved))
	for v := range reserved {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}
