package fault

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/wal"
)

func TestCrashAtByteKillsDevice(t *testing.T) {
	dir := t.TempDir()
	fs := NewFS(nil, FSPlan{CrashAtByte: 15, Seed: 1})
	f, err := fs.OpenFile(filepath.Join(dir, "x"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 10)); err != nil {
		t.Fatalf("write below the crash boundary: %v", err)
	}
	n, err := f.Write(make([]byte, 10))
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("write crossing the boundary: got %v, want ErrCrashed", err)
	}
	if n != 5 {
		t.Fatalf("crossing write persisted %d bytes, want exactly 5 (up to byte 15)", n)
	}
	if !fs.Crashed() {
		t.Fatal("FS not marked crashed")
	}
	if _, err := f.Write([]byte("a")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash write: got %v, want ErrCrashed", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash sync: got %v, want ErrCrashed", err)
	}
	if _, err := fs.OpenFile(filepath.Join(dir, "y"), os.O_RDWR|os.O_CREATE, 0o644); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash open: got %v, want ErrCrashed", err)
	}
	st, err := os.Stat(filepath.Join(dir, "x"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != 15 {
		t.Fatalf("on-disk file has %d bytes, want the 15 persisted before the crash", st.Size())
	}
}

func TestSyncErrIsTransient(t *testing.T) {
	dir := t.TempDir()
	fs := NewFS(nil, FSPlan{SyncErrProb: 1, CrashAtByte: -1, Seed: 2})
	f, err := fs.OpenFile(filepath.Join(dir, "x"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("payload")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjectedSync) {
		t.Fatalf("sync: got %v, want ErrInjectedSync", err)
	}
	// The data reached the file despite the failed sync.
	b, err := os.ReadFile(filepath.Join(dir, "x"))
	if err != nil || string(b) != "payload" {
		t.Fatalf("file content %q err %v after failed sync", b, err)
	}
	if fs.Crashed() {
		t.Fatal("transient sync failure crashed the device")
	}
}

func TestShortWritePersistsStrictPrefix(t *testing.T) {
	dir := t.TempDir()
	fs := NewFS(nil, FSPlan{ShortWriteProb: 1, CrashAtByte: -1, Seed: 3})
	f, err := fs.OpenFile(filepath.Join(dir, "x"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 100)
	n, err := f.Write(buf)
	if err == nil {
		t.Fatal("short write reported success")
	}
	if n <= 0 || n >= len(buf) {
		t.Fatalf("short write persisted %d of %d bytes, want a strict prefix", n, len(buf))
	}
	if fs.Crashed() {
		t.Fatal("short write crashed the device; it must stay usable")
	}
}

// TestWALSurvivesShortWrites drives the WAL over a disk that tears
// half its writes and checks the self-repair invariant: after the
// storm, every append that REPORTED success is replayable from a
// clean reopen, and the log is never corrupt mid-segment.
func TestWALSurvivesShortWrites(t *testing.T) {
	dir := t.TempDir()
	fs := NewFS(nil, FSPlan{ShortWriteProb: 0.5, CrashAtByte: -1, Seed: 4})
	fs.SetArmed(false) // open cleanly, then start the storm
	w, err := wal.Open(dir, wal.Options{
		FS:         fs,
		FlushBatch: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	fs.SetArmed(true)
	var committed []uint64
	for i := 0; i < 200; i++ {
		err := w.Append(&wal.Record{Type: wal.TypeCounter, ClientID: "dev-0", NextID: uint64(i)})
		if err == nil {
			committed = append(committed, uint64(i))
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if len(committed) == 0 || len(committed) == 200 {
		t.Fatalf("%d/200 appends committed; the storm should fail some and spare some", len(committed))
	}

	w2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatalf("reopen on clean disk: %v", err)
	}
	defer w2.Close()
	got := map[uint64]bool{}
	if err := w2.Replay(func(r *wal.Record) error {
		got[r.NextID] = true
		return nil
	}); err != nil {
		t.Fatalf("replay after repair: %v", err)
	}
	for _, id := range committed {
		if !got[id] {
			t.Errorf("append %d reported success but did not survive replay", id)
		}
	}
}
