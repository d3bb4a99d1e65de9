package cluster

import (
	"fmt"

	"repro/internal/auth"
	"repro/internal/wal"
)

// Recover opens (creating if needed) the WAL in dir and rebuilds a
// server from it: the latest snapshot, then the journal tail through
// applyRecord. wal.Open has already discarded a torn final record left
// by a crash mid-append. The journal is not attached, since a replayed
// record must not be journaled again: the caller attaches its own once
// Recover returns. Every WAL-backed server recovers here, a standalone
// durable server (salt 0) and a cluster node (salt derived from its
// index) alike.
func Recover(dir string, opt wal.Options, cfg auth.Config, seed, salt uint64) (*auth.Server, *wal.WAL, error) {
	w, err := wal.Open(dir, opt)
	if err != nil {
		return nil, nil, err
	}
	cfg.WAL = nil
	srv := auth.NewServer(cfg, seed)
	snap, ok, err := w.LatestSnapshot()
	if err != nil {
		w.Close()
		return nil, nil, err
	}
	if ok {
		err := srv.LoadState(snap)
		snap.Close()
		if err != nil {
			w.Close()
			return nil, nil, fmt.Errorf("cluster: load WAL snapshot: %w", err)
		}
	}
	if err := w.Replay(func(rec *wal.Record) error { return applyRecord(srv, rec) }); err != nil {
		w.Close()
		return nil, nil, fmt.Errorf("cluster: replay WAL: %w", err)
	}
	// Decorrelate this boot's challenge draws from every other stream
	// derived from the same seed. The pre-crash boots of this server
	// drew from it, and the registry already holds the pairs they
	// burned; the recovered challenge counters differ from those of
	// every earlier boot. Other nodes draw from it too: a follower that
	// walked the primary's draw sequence while replaying the primary's
	// burns would sample nothing but burned pairs; salt tells the
	// nodes apart.
	srv.SaltChallengeStream(salt ^ srv.ChallengeCount())
	return srv, w, nil
}

// applyRecord dispatches one journal record onto the server's
// idempotent replay appliers — for recovery and for a follower
// applying the primary's log, which IS recovery, continuously.
func applyRecord(srv *auth.Server, rec *wal.Record) error {
	id := auth.ClientID(rec.ClientID)
	switch rec.Type {
	case wal.TypeEnroll:
		return srv.ReplayEnroll(id, rec.MapBytes, rec.Key, rec.Reserved)
	case wal.TypeBurn:
		return srv.ReplayBurn(id, rec.Pairs, rec.NextID, rec.CRPsSinceRemap)
	case wal.TypeRemap:
		return srv.ReplayRemap(id, rec.Key)
	case wal.TypeCounter:
		return srv.ReplayCounter(id, rec.NextID)
	}
	return &auth.AuthError{
		Code: auth.CodeInvalidRequest,
		Err:  fmt.Errorf("cluster: unknown WAL record type %d", rec.Type),
	}
}
