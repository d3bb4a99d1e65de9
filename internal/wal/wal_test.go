package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/crp"
)

// fastOpts caps group-commit batches at 8 records, so the small
// workloads here still span several batches.
func fastOpts() Options {
	return Options{FlushBatch: 8}
}

func sampleRecords() []*Record {
	return []*Record{
		{
			Type:     TypeEnroll,
			ClientID: "dev-0",
			MapBytes: []byte{0xde, 0xad, 0xbe, 0xef, 0x00, 0x42},
			Key:      [32]byte{1, 2, 3, 31: 9},
			Reserved: []int{660, 700},
		},
		{
			Type:     TypeBurn,
			ClientID: "dev-0",
			Pairs: []crp.PairBit{
				{A: 3, B: 97, VddMV: 680},
				{A: 12, B: 4, VddMV: 680},
				{A: 0, B: 1, VddMV: 700},
			},
			NextID:         7,
			CRPsSinceRemap: 768,
		},
		{Type: TypeCounter, ClientID: "dev-0", NextID: 8},
		{Type: TypeRemap, ClientID: "dev-0", Key: [32]byte{0xaa, 31: 0xbb}},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for _, rec := range sampleRecords() {
		got, err := decodePayload(encodePayload(rec))
		if err != nil {
			t.Fatalf("%s: decode: %v", rec.Type, err)
		}
		if !reflect.DeepEqual(rec, got) {
			t.Errorf("%s: round trip mismatch:\n want %+v\n  got %+v", rec.Type, rec, got)
		}
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	payload := encodePayload(&Record{Type: TypeCounter, ClientID: "x", NextID: 3})
	if _, err := decodePayload(append(payload, 0x01)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestDecodeRefusesRetiredType(t *testing.T) {
	// Type 5 was a client removal no deployment ever wrote; it is
	// retired, never reused, and decodes as unknown.
	if _, err := decodePayload([]byte{5, 0}); err == nil {
		t.Fatal("retired record type 5 accepted")
	}
}

// replayAll collects every record the WAL replays.
func replayAll(t *testing.T, w *WAL) []*Record {
	t.Helper()
	var out []*Record
	if err := w.Replay(func(r *Record) error { out = append(out, r); return nil }); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func TestAppendCloseReopenReplay(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	for _, rec := range want {
		if err := w.Append(rec); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := w.Append(want[0]); err != ErrClosed {
		t.Fatalf("append after close: got %v, want ErrClosed", err)
	}

	w2, err := Open(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got := replayAll(t, w2)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("replay mismatch:\n want %d records %+v\n  got %d records %+v", len(want), want, len(got), got)
	}
}

func TestGroupCommitConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, perG = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				rec := &Record{Type: TypeCounter, ClientID: fmt.Sprintf("dev-%d", g), NextID: uint64(i)}
				if err := w.Append(rec); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got := replayAll(t, w2)
	if len(got) != goroutines*perG {
		t.Fatalf("replayed %d records, want %d", len(got), goroutines*perG)
	}
	// Per-client order must match append order even though goroutines
	// interleave in the shared batch queue.
	next := map[string]uint64{}
	for _, rec := range got {
		if rec.NextID != next[rec.ClientID] {
			t.Fatalf("client %s: record out of order: got seq %d, want %d", rec.ClientID, rec.NextID, next[rec.ClientID])
		}
		next[rec.ClientID]++
	}
}

// gateFS parks the first segment Sync after arm on a gate and, from
// arm on, counts Syncs and the frames each segment write carries. One
// commit is one write and one Sync, so the counts are the writer's
// batches.
type gateFS struct {
	FS
	parked  chan struct{}
	release chan struct{}

	mu       sync.Mutex
	park     bool
	counting bool
	syncs    int
	batches  []int
}

func newGateFS() *gateFS {
	return &gateFS{FS: osFS{}, parked: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateFS) arm() {
	g.mu.Lock()
	g.park, g.counting = true, true
	g.mu.Unlock()
}

func (g *gateFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &gateFile{File: f, g: g}, nil
}

type gateFile struct {
	File
	g *gateFS
}

func (f *gateFile) Write(p []byte) (int, error) {
	f.g.mu.Lock()
	if f.g.counting {
		frames := 0
		for rest := p; len(rest) >= frameHeader; frames++ {
			rest = rest[frameHeader+int(binary.LittleEndian.Uint32(rest[:4])):]
		}
		f.g.batches = append(f.g.batches, frames)
	}
	f.g.mu.Unlock()
	return f.File.Write(p)
}

func (f *gateFile) Sync() error {
	f.g.mu.Lock()
	park := f.g.park
	f.g.park = false
	if f.g.counting {
		f.g.syncs++
	}
	f.g.mu.Unlock()
	if park {
		f.g.parked <- struct{}{}
		<-f.g.release
	}
	return f.File.Sync()
}

// TestGroupCommitBatchesQueuedAppends pins the group-commit writer by
// counting fsyncs, not time: appends that queue while a batch's fsync
// is in flight commit together behind it, FlushBatch at a time.
func TestGroupCommitBatchesQueuedAppends(t *testing.T) {
	const flushBatch = 8
	for _, queued := range []int{5, 20} {
		t.Run(fmt.Sprintf("queued=%d", queued), func(t *testing.T) {
			dir := t.TempDir()
			g := newGateFS()
			w, err := Open(dir, Options{FlushBatch: flushBatch, FS: g})
			if err != nil {
				t.Fatal(err)
			}
			g.arm()
			var wg sync.WaitGroup
			appendAsync := func(rec *Record) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := w.Append(rec); err != nil {
						t.Errorf("append %+v: %v", rec, err)
					}
				}()
			}
			appendAsync(&Record{Type: TypeCounter, ClientID: "dev-0", NextID: 0})
			<-g.parked
			// dev-0's second record queues behind its first; every other
			// client has one record.
			appendAsync(&Record{Type: TypeCounter, ClientID: "dev-0", NextID: 1})
			for i := 1; i < queued; i++ {
				appendAsync(&Record{Type: TypeCounter, ClientID: fmt.Sprintf("dev-%d", i), NextID: 0})
			}
			for len(w.reqs) < queued {
				runtime.Gosched()
			}
			close(g.release)
			wg.Wait()

			g.mu.Lock()
			syncs, batches := g.syncs, append([]int(nil), g.batches...)
			g.mu.Unlock()
			wantSyncs := 1 + (queued+flushBatch-1)/flushBatch
			if syncs != wantSyncs {
				t.Fatalf("%d fsyncs for 1+%d appends, want %d (batches %v)", syncs, queued, wantSyncs, batches)
			}
			if len(batches) != syncs {
				t.Fatalf("%d segment writes for %d fsyncs: %v", len(batches), syncs, batches)
			}
			total := 0
			for _, n := range batches {
				if n < 1 || n > flushBatch {
					t.Fatalf("batch of %d records, want 1..%d: %v", n, flushBatch, batches)
				}
				total += n
			}
			if total != 1+queued {
				t.Fatalf("batches %v hold %d records, want %d", batches, total, 1+queued)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			w2, err := Open(dir, fastOpts())
			if err != nil {
				t.Fatal(err)
			}
			defer w2.Close()
			got := replayAll(t, w2)
			if len(got) != 1+queued {
				t.Fatalf("replayed %d records, want %d", len(got), 1+queued)
			}
			next := map[string]uint64{}
			for _, rec := range got {
				if rec.NextID != next[rec.ClientID] {
					t.Fatalf("client %s: record out of order: got %d, want %d", rec.ClientID, rec.NextID, next[rec.ClientID])
				}
				next[rec.ClientID]++
			}
		})
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	opt := fastOpts()
	opt.SegmentBytes = 256 // rotate every few records
	w, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		if err := w.Append(&Record{Type: TypeCounter, ClientID: "dev-0", NextID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(osFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("expected rotation to produce multiple segments, got %d", len(segs))
	}
	w2, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got := replayAll(t, w2)
	if len(got) != n {
		t.Fatalf("replayed %d records across %d segments, want %d", len(got), len(segs), n)
	}
	for i, rec := range got {
		if rec.NextID != uint64(i) {
			t.Fatalf("record %d out of order: NextID %d", i, rec.NextID)
		}
	}
}

func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	opt := fastOpts()
	opt.SegmentBytes = 256
	w, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	var stateMu sync.Mutex
	applied := 0
	for i := 0; i < 40; i++ {
		if err := w.Append(&Record{Type: TypeCounter, ClientID: "dev-0", NextID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
		applied++
	}
	save := func(out io.Writer) error {
		stateMu.Lock()
		defer stateMu.Unlock()
		_, err := fmt.Fprintf(out, "applied=%d\n", applied)
		return err
	}
	if err := w.Compact(save); err != nil {
		t.Fatalf("compact: %v", err)
	}
	segs, err := listSegments(osFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("compaction left %d segments, want 1 (the live one)", len(segs))
	}
	// Post-compaction appends land in the surviving segment.
	for i := 40; i < 50; i++ {
		if err := w.Append(&Record{Type: TypeCounter, ClientID: "dev-0", NextID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	snap, ok, err := w2.LatestSnapshot()
	if err != nil || !ok {
		t.Fatalf("snapshot missing after compaction: ok=%v err=%v", ok, err)
	}
	b, _ := io.ReadAll(snap)
	snap.Close()
	if string(b) != "applied=40\n" {
		t.Fatalf("snapshot content %q, want applied=40", b)
	}
	got := replayAll(t, w2)
	if len(got) != 10 {
		t.Fatalf("tail replay has %d records, want the 10 post-compaction ones", len(got))
	}
	if got[0].NextID != 40 || got[9].NextID != 49 {
		t.Fatalf("tail replay range [%d,%d], want [40,49]", got[0].NextID, got[9].NextID)
	}
}

// TestKillMidWriteEveryTruncation simulates a crash at every byte
// offset inside the final record: for each truncation point the log
// must reopen cleanly, replay every fully-committed record, and
// discard the torn one.
func TestKillMidWriteEveryTruncation(t *testing.T) {
	master := t.TempDir()
	w, err := Open(master, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	for _, rec := range want {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segPath := segmentPath(master, 1)
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	_, ends, err := scanBytes(data)
	if err != nil || len(ends) != len(want) {
		t.Fatalf("master scan: %d records, err=%v", len(ends), err)
	}
	tailStart := ends[len(ends)-2] // torn record = the final one

	for cut := tailStart; cut < int64(len(data)); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(segmentPath(dir, 1), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := Open(dir, fastOpts())
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		got := replayAll(t, w)
		if len(got) != len(want)-1 {
			t.Fatalf("cut=%d: replayed %d records, want %d committed ones", cut, len(got), len(want)-1)
		}
		if !reflect.DeepEqual(want[:len(want)-1], got) {
			t.Fatalf("cut=%d: committed records corrupted", cut)
		}
		// The log must keep working after truncation: append the torn
		// record again and see it replay on the next open.
		if err := w.Append(want[len(want)-1]); err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		w2, err := Open(dir, fastOpts())
		if err != nil {
			t.Fatal(err)
		}
		got = replayAll(t, w2)
		w2.Close()
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("cut=%d: post-recovery append lost", cut)
		}
	}
}

// TestCorruptCRCMidLog flips a byte inside an early record: that is
// real corruption, not a torn tail, and replay of a multi-segment log
// must refuse it rather than silently skip committed mutations.
func TestCorruptCRCMidLog(t *testing.T) {
	dir := t.TempDir()
	opt := fastOpts()
	opt.SegmentBytes = 128 // force several segments
	w, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := w.Append(&Record{Type: TypeCounter, ClientID: "dev-0", NextID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(osFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("need ≥3 segments, got %d", len(segs))
	}
	// Corrupt a payload byte in the FIRST segment.
	first := segmentPath(dir, segs[0])
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	data[segHeaderLen+frameHeader] ^= 0xff
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("open after mid-log corruption: %v", err)
	}
	defer w2.Close()
	if err := w2.Replay(func(*Record) error { return nil }); err == nil {
		t.Fatal("replay over mid-log corruption succeeded; want loud failure")
	}
}

// TestCorruptCRCTailDiscarded flips a byte in the final record of the
// last segment: indistinguishable from a torn write, so recovery
// keeps the clean prefix and drops it.
func TestCorruptCRCTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	for _, rec := range want {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segPath := segmentPath(dir, 1)
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(segPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got := replayAll(t, w2)
	if !reflect.DeepEqual(want[:len(want)-1], got) {
		t.Fatalf("tail CRC corruption: got %d records, want the %d committed ones intact", len(got), len(want)-1)
	}
}

// TestReplayIdempotence: replaying the same log twice must visit the
// identical record sequence (the appliers upstream rely on this plus
// their own idempotence).
func TestReplayIdempotence(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range sampleRecords() {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	first := replayAll(t, w)
	second := replayAll(t, w)
	if !reflect.DeepEqual(first, second) {
		t.Fatal("two replays of the same log disagree")
	}
	w.Close()
}

func TestAtomicWriteFileReplacesDurably(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	if err := AtomicWriteFile(path, func(w io.Writer) error {
		_, err := w.Write([]byte("v1"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// A failing writer must leave the previous content untouched and
	// no temp litter behind.
	if err := AtomicWriteFile(path, func(w io.Writer) error {
		w.Write([]byte("half"))
		return fmt.Errorf("boom")
	}); err == nil {
		t.Fatal("failing writer reported success")
	}
	b, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(b, []byte("v1")) {
		t.Fatalf("content after failed rewrite: %q err=%v, want v1 intact", b, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp litter left behind: %d entries", len(entries))
	}
}
