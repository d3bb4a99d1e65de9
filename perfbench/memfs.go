package main

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/wal"
)

// memFS keeps WAL segment files in anonymous shared memory (memfd), as
// tmpfs would: writes land in memory, fsync has nothing to flush, and
// the bytes are neither on the Go heap (so they do not change the
// collector's pacing) nor mapped into the process (so they are not in
// its RSS). It stands in for tmpfs because the benchmark may write only
// inside its checkout, whose disk fsync (tens of microseconds, with
// multi-millisecond spikes) would set the tail latencies and fire the
// router's hedges. Snapshots do not go through wal.FS; they stay on the
// host filesystem, in the checkout.
type memFS struct {
	mu    sync.Mutex
	files map[string]*os.File
}

func newMemFS() *memFS { return &memFS{files: make(map[string]*os.File)} }

var _ wal.FS = (*memFS)(nil)

// memfdCreate returns a new, empty anonymous memory file.
func memfdCreate(name string) (*os.File, error) {
	nr, ok := map[string]uintptr{"amd64": 319, "arm64": 279}[runtime.GOARCH]
	if !ok {
		return nil, fmt.Errorf("memfs: no memfd_create on %s", runtime.GOARCH)
	}
	p, err := syscall.BytePtrFromString(filepath.Base(name))
	if err != nil {
		return nil, err
	}
	const mfdCloexec = 1
	fd, _, errno := syscall.Syscall(nr, uintptr(unsafe.Pointer(p)), mfdCloexec, 0)
	if errno != 0 {
		return nil, &fs.PathError{Op: "memfd_create", Path: name, Err: errno}
	}
	return os.NewFile(fd, name), nil
}

func (m *memFS) OpenFile(name string, flag int, _ os.FileMode) (wal.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	switch {
	case ok && flag&os.O_CREATE != 0 && flag&os.O_EXCL != 0:
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrExist}
	case !ok && flag&os.O_CREATE == 0:
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	case !ok:
		var err error
		if f, err = memfdCreate(name); err != nil {
			return nil, err
		}
		m.files[name] = f
	}
	if flag&os.O_TRUNC != 0 {
		if err := f.Truncate(0); err != nil {
			return nil, err
		}
	}
	return &memFile{f: f, name: name}, nil
}

// ReadDir lists the files kept in memory under dir.
func (m *memFS) ReadDir(dir string) ([]os.DirEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []os.DirEntry
	for name, f := range m.files {
		if filepath.Dir(name) == filepath.Clean(dir) {
			size, err := fileSize(f)
			if err != nil {
				return nil, err
			}
			out = append(out, memInfo{name: filepath.Base(name), size: size})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

func (m *memFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	f, ok := m.files[name]
	m.mu.Unlock()
	if !ok {
		return nil, &fs.PathError{Op: "read", Path: name, Err: fs.ErrNotExist}
	}
	return readAll(f)
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m.files, name)
	return f.Close()
}

// MkdirAll creates the directory on the host, where the WAL writes its
// snapshots.
func (m *memFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (m *memFS) SyncDir(string) error { return nil }

// copyDir copies dir's files, in memory and on the host, to dst.
func (m *memFS) copyDir(dir, dst string) error {
	if err := copyHostDir(dir, dst); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for name, f := range m.files {
		if filepath.Dir(name) != filepath.Clean(dir) {
			continue
		}
		b, err := readAll(f)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, filepath.Base(name))
		g, err := memfdCreate(to)
		if err != nil {
			return err
		}
		if _, err := g.WriteAt(b, 0); err != nil {
			g.Close()
			return err
		}
		m.files[to] = g
	}
	return nil
}

// removeAll drops dir's files, in memory and on the host.
func (m *memFS) removeAll(dir string) error {
	var errs []error
	m.mu.Lock()
	for name, f := range m.files {
		if name == dir || strings.HasPrefix(name, dir+string(filepath.Separator)) {
			delete(m.files, name)
			errs = append(errs, f.Close())
		}
	}
	m.mu.Unlock()
	return errors.Join(append(errs, os.RemoveAll(dir))...)
}

// close releases every file still held.
func (m *memFS) close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for name, f := range m.files {
		f.Close()
		delete(m.files, name)
	}
}

// dirBytes sums the sizes of dir's files, in memory and on the host.
func (m *memFS) dirBytes(dir string) (int64, error) {
	n, err := hostDirBytes(dir)
	if err != nil {
		return 0, err
	}
	entries, err := m.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		n += e.(memInfo).size
	}
	return n, nil
}

func fileSize(f *os.File) (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func readAll(f *os.File) ([]byte, error) {
	size, err := fileSize(f)
	if err != nil {
		return nil, err
	}
	b := make([]byte, size)
	if _, err := f.ReadAt(b, 0); err != nil && err != io.EOF {
		return nil, err
	}
	return b, nil
}

// memFile is an open segment: its own read/write offset over a memory
// file the memFS holds. Closing it leaves the file in place.
type memFile struct {
	f    *os.File
	name string

	mu  sync.Mutex
	off int64
}

func (f *memFile) Read(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, err := f.f.ReadAt(p, f.off)
	f.off += int64(n)
	if err == io.EOF && n > 0 {
		err = nil
	}
	return n, err
}

func (f *memFile) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, err := f.f.WriteAt(p, f.off)
	f.off += int64(n)
	return n, err
}

func (f *memFile) Close() error { return nil }

func (f *memFile) Sync() error { return f.f.Sync() }

func (f *memFile) Truncate(size int64) error { return f.f.Truncate(size) }

func (f *memFile) Seek(offset int64, whence int) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch whence {
	case io.SeekStart:
	case io.SeekCurrent:
		offset += f.off
	case io.SeekEnd:
		size, err := fileSize(f.f)
		if err != nil {
			return 0, err
		}
		offset += size
	default:
		return 0, errors.New("memfs: bad whence")
	}
	if offset < 0 {
		return 0, errors.New("memfs: negative offset")
	}
	f.off = offset
	return offset, nil
}

func (f *memFile) Stat() (os.FileInfo, error) {
	size, err := fileSize(f.f)
	if err != nil {
		return nil, err
	}
	return memInfo{name: filepath.Base(f.name), size: size}, nil
}

// memInfo describes a file in memory; it serves as both os.FileInfo
// and os.DirEntry.
type memInfo struct {
	name string
	size int64
}

func (i memInfo) Name() string               { return i.name }
func (i memInfo) Size() int64                { return i.size }
func (i memInfo) Mode() fs.FileMode          { return 0o644 }
func (i memInfo) ModTime() time.Time         { return time.Time{} }
func (i memInfo) IsDir() bool                { return false }
func (i memInfo) Sys() any                   { return nil }
func (i memInfo) Type() fs.FileMode          { return 0 }
func (i memInfo) Info() (fs.FileInfo, error) { return i, nil }
