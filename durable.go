package authenticache

import (
	"io"

	"repro/internal/auth"
	"repro/internal/cluster"
	"repro/internal/wal"
)

// Durable serving: the write-ahead log subsystem wired through the
// facade. A plain Server persists only when the caller snapshots it;
// a DurableServer journals every mutation (enroll, pair burn, key
// rotation, counter advance) to an append-only log before the
// mutating call returns, recovers snapshot+log on open, and compacts
// the log back into a snapshot on demand. See internal/wal for the
// on-disk format and DESIGN.md's Durability section for the
// semantics.

// WALOptions tunes the write-ahead log (segment size, group-commit
// batch cap, filesystem). Every commit is fsynced.
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
	srv, w, err := cluster.Recover(dir, opt, cfg, seed, 0)
	if err != nil {
		return nil, err
	}
	srv.AttachJournal(w)
	return &DurableServer{Server: srv, wal: w}, nil
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
// callers persisting their own files (ackey's key bundles) get the
// same crash-safety as WAL compaction.
func AtomicWriteFile(path string, write func(io.Writer) error) error {
	return wal.AtomicWriteFile(path, write)
}
