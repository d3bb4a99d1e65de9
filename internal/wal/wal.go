package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/crp"
)

// Options tunes the log.
type Options struct {
	// SegmentBytes rotates to a fresh segment file once the current
	// one reaches this size. Default 4 MiB.
	SegmentBytes int64
	// FlushBatch caps how many queued records one write+fsync commits,
	// so a burst pays one fsync per batch rather than one per record.
	// Default 64. 1 degenerates to fsync-per-record.
	FlushBatch int
	// FS substitutes the filesystem under the segment files. nil means
	// the host filesystem; fault-injection tests supply a failing one.
	FS FS
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.FlushBatch <= 0 {
		o.FlushBatch = 64
	}
	if o.FS == nil {
		o.FS = osFS{}
	}
	return o
}

const (
	segMagic     = "ACWALv1\n"
	segHeaderLen = int64(len(segMagic))
	frameHeader  = 8 // u32 length + u32 CRC32C
	snapshotName = "snapshot.json"
	segPrefix    = "wal-"
	segSuffix    = ".log"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// putFrameHeader fills an 8-byte frame header (length + CRC32C) for a
// payload.
func putFrameHeader(hdr, payload []byte) {
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
}

// ErrClosed is returned by operations on a closed WAL.
var ErrClosed = errors.New("wal: closed")

// request is one unit of work for the writer goroutine: a frame to
// append, or (frame == nil) a flush-and-rotate barrier. seq is
// assigned by the writer once the record is durable.
type request struct {
	frame  []byte
	rotate bool
	seq    uint64
	errc   chan error
}

// WAL is an append-only write-ahead log over a directory of segment
// files. Appends from any number of goroutines funnel into a single
// writer goroutine that batches queued records into one write+fsync
// (group commit); Append returns only once the record is durable, so
// the caller's fsync cost is amortised across the batch.
type WAL struct {
	dir string
	opt Options

	reqs chan *request
	done chan struct{}

	// closedMu guards closed against the Append/Compact send path:
	// senders hold it shared while pushing onto reqs, Close holds it
	// exclusive while closing the channel. (The writer-goroutine fields
	// below are confined to the writer loop and need no lock.)
	closedMu sync.RWMutex
	closed   bool

	// seg is the index of the segment currently being appended to;
	// read by Compact to know which segments are sealed.
	seg atomic.Uint64

	// compactMu serialises Compact calls.
	compactMu sync.Mutex

	// subMu guards subs and orders publication: the writer publishes
	// committed records and assigns sequence numbers under it, so a
	// Subscribe sees an exact snapshot boundary and a Close never
	// races a send. commitSeq is the count of records committed so
	// far, written only under subMu; committed mirrors it for
	// lock-free readers.
	subMu     sync.Mutex
	subs      []*Subscription
	commitSeq uint64
	committed atomic.Uint64

	// Writer-goroutine state.
	f    File
	bw   bufWriter
	size int64
	// broken latches when a failed batch write cannot be repaired
	// (truncating back to the last clean record boundary also failed):
	// the on-disk tail is now indeterminate, so further appends fail
	// fast with ErrBroken rather than stacking frames after garbage.
	broken bool
}

// ErrBroken is returned by appends after an unrepairable write fault.
var ErrBroken = errors.New("wal: writer disabled after unrepaired write fault")

// bufWriter is the minimal buffered-writer surface the writer loop
// needs; a plain wrapper keeps the reset-on-rotate explicit.
type bufWriter struct {
	f   File
	buf []byte
}

func (b *bufWriter) reset(f File) { b.f, b.buf = f, b.buf[:0] }

func (b *bufWriter) write(p []byte) {
	b.buf = append(b.buf, p...)
}

func (b *bufWriter) flush() error {
	if len(b.buf) == 0 {
		return nil
	}
	_, err := b.f.Write(b.buf)
	b.buf = b.buf[:0]
	return err
}

// Open opens (creating if needed) the log directory and prepares the
// last segment for appending. A torn final record left by a crash is
// truncated away; fully-committed records are never touched. Call
// Replay before the first Append to rebuild state.
func Open(dir string, opt Options) (*WAL, error) {
	opt = opt.withDefaults()
	if err := opt.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create dir: %w", err)
	}
	segs, err := listSegments(opt.FS, dir)
	if err != nil {
		return nil, err
	}
	w := &WAL{
		dir:  dir,
		opt:  opt,
		reqs: make(chan *request, 256),
		done: make(chan struct{}),
	}
	if len(segs) == 0 {
		f, err := createSegment(opt.FS, dir, 1)
		if err != nil {
			return nil, err
		}
		w.f = f
		w.seg.Store(1)
		w.size = segHeaderLen
	} else {
		last := segs[len(segs)-1]
		path := segmentPath(dir, last)
		// Scan the tail segment and truncate any torn final frame so
		// appends resume on a clean record boundary.
		_, ends, scanErr := scanSegment(opt.FS, path)
		cleanLen := segHeaderLen
		if len(ends) > 0 {
			cleanLen = ends[len(ends)-1]
		}
		f, err := opt.FS.OpenFile(path, os.O_RDWR, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: open segment: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: stat segment: %w", err)
		}
		if scanErr != nil || st.Size() > cleanLen {
			if err := f.Truncate(cleanLen); err != nil {
				f.Close()
				return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
			}
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, fmt.Errorf("wal: sync truncated segment: %w", err)
			}
		}
		if cleanLen == segHeaderLen {
			// A crash inside segment creation can leave a file whose
			// magic header never fully landed (and the truncate above
			// may have zero-extended a short one). Rewrite the header so
			// appends land behind real magic.
			if err := repairHeader(f); err != nil {
				f.Close()
				return nil, err
			}
		}
		if _, err := f.Seek(cleanLen, io.SeekStart); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: seek segment end: %w", err)
		}
		w.f = f
		w.seg.Store(last)
		w.size = cleanLen
	}
	w.bw.reset(w.f)
	go w.run()
	return w, nil
}

// Dir returns the log directory.
func (w *WAL) Dir() string { return w.dir }

// Append encodes the record, queues it for the group-commit writer,
// and blocks until the batch containing it has been written and
// fsynced. Safe for concurrent use.
func (w *WAL) Append(rec *Record) error {
	_, err := w.AppendRecord(rec)
	return err
}

// AppendRecord is Append returning the commit sequence number the
// record was assigned: the position of the record in the durable
// commit order, as seen by subscribers. Replicated journals use it to
// wait for follower acknowledgement of exactly this record.
func (w *WAL) AppendRecord(rec *Record) (uint64, error) {
	frame, err := EncodeFrame(rec)
	if err != nil {
		return 0, err
	}
	req := &request{frame: frame, errc: make(chan error, 1)}
	if err := w.submit(req); err != nil {
		return 0, err
	}
	return req.seq, nil
}

// AppendFrame appends a frame produced by EncodeFrame (or shipped
// verbatim from another log's subscriber) after verifying and decoding
// it, so a replica's segments stay byte-identical to the primary's and
// a corrupt frame is refused before anything is appended. Returns the
// decoded record, which a replica applies without decoding the frame
// again.
func (w *WAL) AppendFrame(frame []byte) (*Record, error) {
	rec, err := DecodeFrame(frame)
	if err != nil {
		return nil, err
	}
	own := make([]byte, len(frame))
	copy(own, frame)
	if err := w.submit(&request{frame: own, errc: make(chan error, 1)}); err != nil {
		return nil, err
	}
	return rec, nil
}

// EncodeFrame serialises rec as one on-disk log frame: the 8-byte
// length+CRC32C header followed by the record payload. The bytes are
// exactly what Append writes to a segment, so frames can be shipped
// across the wire and re-appended on a replica without re-encoding.
func EncodeFrame(rec *Record) ([]byte, error) {
	payload := encodePayload(rec)
	if len(payload) > maxPayload {
		return nil, fmt.Errorf("wal: record payload %d bytes exceeds cap", len(payload))
	}
	frame := make([]byte, frameHeader+len(payload))
	putFrameHeader(frame[:frameHeader], payload)
	copy(frame[frameHeader:], payload)
	return frame, nil
}

// DecodeFrame verifies and decodes one frame produced by EncodeFrame.
// The CRC is checked end-to-end, so a frame that crossed a network
// carries the same integrity guarantee as one read back from disk.
func DecodeFrame(frame []byte) (*Record, error) {
	if len(frame) < frameHeader {
		return nil, fmt.Errorf("wal: frame shorter than header: %d bytes", len(frame))
	}
	n := binary.LittleEndian.Uint32(frame[0:4])
	if int(n) != len(frame)-frameHeader {
		return nil, fmt.Errorf("wal: frame length %d disagrees with header %d", len(frame)-frameHeader, n)
	}
	payload := frame[frameHeader:]
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(frame[4:8]); got != want {
		return nil, fmt.Errorf("wal: frame CRC mismatch: %08x != %08x", got, want)
	}
	return decodePayload(payload)
}

func (w *WAL) submit(req *request) error {
	w.closedMu.RLock()
	if w.closed {
		w.closedMu.RUnlock()
		return ErrClosed
	}
	w.reqs <- req
	w.closedMu.RUnlock()
	return <-req.errc
}

// run is the single writer goroutine: it pulls a request, gathers a
// batch behind it, commits the batch with one fsync, and wakes every
// waiter with the shared outcome.
func (w *WAL) run() {
	defer close(w.done)
	for req := range w.reqs {
		batch := w.gather(req)
		err := w.commit(batch)
		for _, r := range batch {
			r.errc <- err
		}
	}
	// Close drained the queue; make whatever the buffer still held
	// durable and release the file.
	w.bw.flush()
	w.f.Sync()
	w.f.Close()
	// Detach every subscriber: the log is done, there is nothing more
	// to stream.
	w.subMu.Lock()
	for _, s := range w.subs {
		s.closeLocked()
	}
	w.subs = nil
	w.subMu.Unlock()
}

// gather drains the requests already queued behind first, up to
// FlushBatch records. It never waits for stragglers: appenders block
// until their batch commits, so a request that isn't queued yet cannot
// arrive until this batch finishes — the writer commits the moment the
// queue empties. Under concurrent load the batch still grows, because
// new appenders queue while the previous batch's fsync is in flight.
func (w *WAL) gather(first *request) []*request {
	batch := []*request{first}
	if first.rotate {
		return batch
	}
	for len(batch) < w.opt.FlushBatch {
		select {
		case req, ok := <-w.reqs:
			if !ok {
				return batch
			}
			batch = append(batch, req)
			if req.rotate {
				return batch
			}
		default:
			// Queue empty: commit what we have.
			return batch
		}
	}
	return batch
}

// commit writes the batch's frames, flushes, fsyncs once, and rotates
// the segment if the batch asked for it or the size threshold tripped.
// A failed write is repaired by truncating back to the clean boundary
// the batch started at, so a transient disk fault costs the batch (the
// callers see errors and retry) without corrupting the log mid-
// segment; an fsync failure leaves the frames in place, where replay
// applies them idempotently even though the appenders saw an error.
func (w *WAL) commit(batch []*request) error {
	if w.broken {
		return ErrBroken
	}
	rotate := false
	pre := w.size
	for _, r := range batch {
		if r.rotate {
			rotate = true
			continue
		}
		w.bw.write(r.frame)
		w.size += int64(len(r.frame))
	}
	if err := w.bw.flush(); err != nil {
		w.repair(pre)
		return fmt.Errorf("wal: write segment: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync segment: %w", err)
	}
	w.publish(batch)
	if rotate || w.size >= w.opt.SegmentBytes {
		return w.rotate()
	}
	return nil
}

// publish assigns commit sequence numbers to the batch's records and
// fans them out to subscribers. It runs only after the batch is
// durable: an fsync failure means the appenders saw an error, so the
// records must not be replicated even if the frames reached the disk
// (replicas pick them up from the next snapshot instead, where replay
// has already applied them idempotently). A subscriber whose buffer
// is full is overrun: its channel is closed and it must re-sync from
// a snapshot — that bounds divergence without ever blocking the
// commit path.
func (w *WAL) publish(batch []*request) {
	w.subMu.Lock()
	defer w.subMu.Unlock()
	for _, r := range batch {
		if r.rotate {
			continue
		}
		w.commitSeq++
		r.seq = w.commitSeq
	}
	w.committed.Store(w.commitSeq)
	if len(w.subs) == 0 {
		return
	}
	live := w.subs[:0]
	for _, s := range w.subs {
		ok := true
		for _, r := range batch {
			if r.rotate {
				continue
			}
			select {
			case s.ch <- Committed{Seq: r.seq, Frame: r.frame}:
			default:
				ok = false
			}
			if !ok {
				break
			}
		}
		if ok {
			live = append(live, s)
		} else {
			s.closeLocked()
		}
	}
	w.subs = live
}

// Committed is one durably-committed record as delivered to
// subscribers. Frame aliases the writer's buffer and must be treated
// as read-only; it is the exact on-disk frame (header + payload) and
// round-trips through DecodeFrame/AppendFrame.
type Committed struct {
	Seq   uint64
	Frame []byte
}

// Subscription is a live feed of committed records. The channel is
// closed when the subscriber falls too far behind (buffer overrun),
// when the subscription is Closed, or when the log itself closes; in
// every case the consumer re-syncs from a snapshot.
type Subscription struct {
	w  *WAL
	ch chan Committed
	// closed is guarded by w.subMu.
	closed bool
}

// C is the committed-record feed.
func (s *Subscription) C() <-chan Committed { return s.ch }

// Close detaches the subscription and closes its channel. Safe to
// call concurrently with publication and more than once.
func (s *Subscription) Close() {
	s.w.subMu.Lock()
	defer s.w.subMu.Unlock()
	s.closeLocked()
	for i, x := range s.w.subs {
		if x == s {
			s.w.subs = append(s.w.subs[:i], s.w.subs[i+1:]...)
			break
		}
	}
}

// closeLocked closes the channel once. Caller holds w.subMu.
func (s *Subscription) closeLocked() {
	if !s.closed {
		s.closed = true
		close(s.ch)
	}
}

// Subscribe registers a feed of every record committed after the
// returned sequence number. buf bounds how far the subscriber may lag
// before it is overrun (≤ 0 means 256). The returned seq is exact
// under subMu: a state snapshot taken after Subscribe returns covers
// every record at or below it, and the feed delivers every record
// above it — together they form a gapless handoff for replica
// catch-up.
func (w *WAL) Subscribe(buf int) (*Subscription, uint64) {
	if buf <= 0 {
		buf = 256
	}
	s := &Subscription{w: w, ch: make(chan Committed, buf)}
	w.subMu.Lock()
	w.subs = append(w.subs, s)
	seq := w.commitSeq
	w.subMu.Unlock()
	return s, seq
}

// CommittedSeq returns the sequence number of the most recently
// committed record. The primary's value minus a follower's highest
// acknowledged sequence is the follower's replication lag.
func (w *WAL) CommittedSeq() uint64 { return w.committed.Load() }

// repair restores the segment to the clean record boundary a failed
// batch write started at. An unknown prefix of the batch may have
// reached the file; truncating it away re-establishes the invariant
// that the file ends exactly on a committed frame. If even that fails
// the tail is indeterminate and the writer latches broken.
func (w *WAL) repair(pre int64) {
	if err := w.f.Truncate(pre); err != nil {
		w.broken = true
		return
	}
	if _, err := w.f.Seek(pre, io.SeekStart); err != nil {
		w.broken = true
		return
	}
	w.size = pre
}

// rotate seals the current segment and starts the next one. The next
// segment is created before the current one is released so a creation
// failure (disk full, dead device) leaves the writer on its current,
// still-valid segment.
func (w *WAL) rotate() error {
	next := w.seg.Load() + 1
	f, err := createSegment(w.opt.FS, w.dir, next)
	if err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		// The sealed segment's records are already fsynced; the close
		// failure costs nothing replay needs.
		w.f = f
		w.bw.reset(f)
		w.size = segHeaderLen
		w.seg.Store(next)
		return fmt.Errorf("wal: close sealed segment: %w", err)
	}
	w.f = f
	w.bw.reset(f)
	w.size = segHeaderLen
	w.seg.Store(next)
	return nil
}

// Close flushes and fsyncs outstanding records and releases the log.
// Further Appends return ErrClosed.
func (w *WAL) Close() error {
	w.closedMu.Lock()
	if w.closed {
		w.closedMu.Unlock()
		return ErrClosed
	}
	w.closed = true
	close(w.reqs)
	w.closedMu.Unlock()
	<-w.done
	return nil
}

// Replay feeds every intact record, across all segments in order, to
// apply. Call it after Open and before the first Append. A torn tail
// on the final segment has already been truncated by Open; a corrupt
// frame in any earlier position is real data loss and returns an
// error without applying further records.
func (w *WAL) Replay(apply func(*Record) error) error {
	segs, err := listSegments(w.opt.FS, w.dir)
	if err != nil {
		return err
	}
	for i, idx := range segs {
		recs, _, err := scanSegment(w.opt.FS, segmentPath(w.dir, idx))
		if err != nil && i != len(segs)-1 {
			return fmt.Errorf("wal: segment %d corrupt mid-log: %w", idx, err)
		}
		// On the last segment a scan error can only describe bytes
		// past the clean prefix Open already discarded.
		for _, rec := range recs {
			if err := apply(rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// LatestSnapshot opens the compaction snapshot, if one exists.
func (w *WAL) LatestSnapshot() (io.ReadCloser, bool, error) {
	f, err := os.Open(filepath.Join(w.dir, snapshotName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("wal: open snapshot: %w", err)
	}
	return f, true, nil
}

// Compact folds the log into a fresh snapshot: it seals the current
// segment behind a flush barrier, writes the snapshot atomically
// (temp file, fsync, rename), and deletes the sealed segments the
// snapshot now covers. save must serialise the *live* server state
// (auth.Server.SaveState); because every journaled mutation is
// applied in memory before its Append returns, the snapshot is always
// at least as new as the sealed segments it replaces. Records that
// race past the barrier stay in the new segment and replay
// idempotently on recovery.
func (w *WAL) Compact(save func(io.Writer) error) error {
	w.compactMu.Lock()
	defer w.compactMu.Unlock()
	req := &request{rotate: true, errc: make(chan error, 1)}
	if err := w.submit(req); err != nil {
		return err
	}
	sealedBelow := w.seg.Load()
	if err := AtomicWriteFile(filepath.Join(w.dir, snapshotName), save); err != nil {
		return fmt.Errorf("wal: write snapshot: %w", err)
	}
	segs, err := listSegments(w.opt.FS, w.dir)
	if err != nil {
		return err
	}
	for _, idx := range segs {
		if idx >= sealedBelow {
			continue
		}
		if err := w.opt.FS.Remove(segmentPath(w.dir, idx)); err != nil {
			return fmt.Errorf("wal: drop sealed segment %d: %w", idx, err)
		}
	}
	return w.opt.FS.SyncDir(w.dir)
}

// JournalEnroll, JournalBurn, JournalRemap and JournalCounter
// implement the auth layer's Journal interface, mapping each mutation
// onto its record type.

func (w *WAL) JournalEnroll(id string, mapBytes []byte, key [32]byte, reserved []int) error {
	return w.Append(&Record{Type: TypeEnroll, ClientID: id, MapBytes: mapBytes, Key: key, Reserved: reserved})
}

func (w *WAL) JournalBurn(id string, pairs []crp.PairBit, nextID uint64, crpsSinceRemap int) error {
	return w.Append(&Record{Type: TypeBurn, ClientID: id, Pairs: pairs, NextID: nextID, CRPsSinceRemap: crpsSinceRemap})
}

func (w *WAL) JournalRemap(id string, newKey [32]byte) error {
	return w.Append(&Record{Type: TypeRemap, ClientID: id, Key: newKey})
}

func (w *WAL) JournalCounter(id string, nextID uint64) error {
	return w.Append(&Record{Type: TypeCounter, ClientID: id, NextID: nextID})
}

// segmentPath names segment idx inside dir.
func segmentPath(dir string, idx uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", segPrefix, idx, segSuffix))
}

// listSegments returns the segment indexes present in dir, ascending.
func listSegments(fs FS, dir string) ([]uint64, error) {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: read dir: %w", err)
	}
	var out []uint64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || len(name) != len(segPrefix)+8+len(segSuffix) ||
			name[:len(segPrefix)] != segPrefix || name[len(name)-len(segSuffix):] != segSuffix {
			continue
		}
		var idx uint64
		if _, err := fmt.Sscanf(name[len(segPrefix):len(name)-len(segSuffix)], "%d", &idx); err != nil {
			continue
		}
		out = append(out, idx)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// repairHeader verifies a record-less tail segment still starts with
// the magic header, rewriting it durably if a crash tore it.
func repairHeader(f File) error {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("wal: seek segment header: %w", err)
	}
	hdr := make([]byte, segHeaderLen)
	if n, _ := io.ReadFull(f, hdr); int64(n) == segHeaderLen && string(hdr) == segMagic {
		return nil
	}
	if err := f.Truncate(0); err != nil {
		return fmt.Errorf("wal: reset torn segment header: %w", err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("wal: seek torn segment: %w", err)
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		return fmt.Errorf("wal: rewrite segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: sync rewritten header: %w", err)
	}
	return nil
}

// createSegment creates segment idx with its magic header, durably.
func createSegment(fs FS, dir string, idx uint64) (File, error) {
	path := segmentPath(dir, idx)
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: create segment: %w", err)
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: write segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: sync new segment: %w", err)
	}
	if err := fs.SyncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}
