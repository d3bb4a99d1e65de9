package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// AtomicWriteFile durably replaces path with the bytes produced by
// write: the content goes to a temp file in the same directory, is
// fsynced, renamed over path, and the directory entry is fsynced. A
// crash at any point leaves either the old file or the new one —
// never a truncated hybrid. WAL compaction snapshots and ackey's key
// bundles go through this helper; the classic failure it prevents is
// os.Create over the only copy of the enrollment database followed by
// a crash mid-write.
func AtomicWriteFile(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("wal: create temp file: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("wal: sync temp file: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("wal: close temp file: %w", err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("wal: rename into place: %w", err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so renames and creations within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: open dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}
