package authenticache

import (
	"fmt"
	"io"

	"repro/internal/auth"
	"repro/internal/wal"
)

// Durable serving: the write-ahead log subsystem wired through the
// facade. A plain Server persists only when the caller snapshots it;
// a DurableServer journals every mutation (enroll, pair burn, key
// rotation, counter advance, delete) to an append-only log before the
// mutating call returns, recovers snapshot+log on open, and compacts
// the log back into a snapshot on demand. See internal/wal for the
// on-disk format and DESIGN.md's Durability section for the
// semantics.

// WALOptions tunes the write-ahead log (segment size, group-commit
// flush interval and batch).
type WALOptions = wal.Options

// WALJournal is the journal interface a ServerConfig.WAL accepts;
// *wal.WAL implements it.
type WALJournal = auth.Journal

// DurableServer is a Server whose enrollment database survives
// crashes: mutations journal through a WAL, recovery replays the log
// over the latest snapshot, and Compact folds the log away.
type DurableServer struct {
	*Server
	wal *wal.WAL
}

// OpenDurableServer opens (creating if needed) the WAL directory,
// rebuilds the server from the latest snapshot plus the journal tail
// — tolerating a torn final record from a crash mid-append — and
// attaches the journal so every subsequent mutation is durable before
// it returns. cfg.WAL is ignored: the journal must only attach after
// replay, otherwise recovery would re-journal every replayed record.
func OpenDurableServer(dir string, cfg ServerConfig, seed uint64, opt WALOptions) (*DurableServer, error) {
	w, err := wal.Open(dir, opt)
	if err != nil {
		return nil, err
	}
	cfg.WAL = nil
	srv := auth.NewServer(cfg, seed)
	snap, ok, err := w.LatestSnapshot()
	if err != nil {
		w.Close()
		return nil, err
	}
	if ok {
		err := srv.LoadState(snap)
		snap.Close()
		if err != nil {
			w.Close()
			return nil, fmt.Errorf("authenticache: load WAL snapshot: %w", err)
		}
	}
	if err := w.Replay(func(rec *wal.Record) error { return applyRecord(srv, rec) }); err != nil {
		w.Close()
		return nil, fmt.Errorf("authenticache: replay WAL: %w", err)
	}
	// Decorrelate this boot's challenge draws from the pre-crash
	// server's: both start from the same seed, and the registry already
	// holds the pairs the old stream produced, so replaying the stream
	// verbatim would sample nothing but burned pairs. The recovered
	// challenge counters differ from those of every earlier boot that
	// drew from the stream.
	srv.SaltChallengeStream(srv.ChallengeCount())
	srv.AttachJournal(w)
	return &DurableServer{Server: srv, wal: w}, nil
}

// applyRecord dispatches one journal record onto the server's
// idempotent replay appliers.
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
	case wal.TypeDelete:
		return srv.ReplayDelete(id)
	}
	return &auth.AuthError{
		Code: auth.CodeInvalidRequest,
		Err:  fmt.Errorf("authenticache: unknown WAL record type %d", rec.Type),
	}
}

// Compact folds the journal into a fresh snapshot and deletes the
// sealed segments it covers. Safe to call while serving traffic.
func (d *DurableServer) Compact() error {
	return d.wal.Compact(d.Server.SaveState)
}

// Close takes a final snapshot (so the next open replays an empty
// tail) and releases the log. The server remains usable in memory but
// further mutations fail their journal write.
func (d *DurableServer) Close() error {
	if err := d.Compact(); err != nil {
		d.wal.Close()
		return err
	}
	return d.wal.Close()
}

// WALDir returns the journal directory.
func (d *DurableServer) WALDir() string { return d.wal.Dir() }

// AtomicWriteFile durably replaces path with the bytes produced by
// write (temp file + fsync + rename + directory fsync). Exposed so
// callers persisting plain -state snapshots get the same
// crash-safety as WAL compaction.
func AtomicWriteFile(path string, write func(io.Writer) error) error {
	return wal.AtomicWriteFile(path, write)
}
