package wal

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// collect drains n records from the subscription or fails the test.
func collect(t *testing.T, sub *Subscription, n int) []Committed {
	t.Helper()
	out := make([]Committed, 0, n)
	timeout := time.After(5 * time.Second)
	for len(out) < n {
		select {
		case c, ok := <-sub.C():
			if !ok {
				t.Fatalf("subscription closed after %d of %d records", len(out), n)
			}
			out = append(out, c)
		case <-timeout:
			t.Fatalf("timed out waiting for record %d of %d", len(out)+1, n)
		}
	}
	return out
}

func TestSubscribeDeliversCommittedRecords(t *testing.T) {
	w, err := Open(t.TempDir(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	sub, snapSeq := w.Subscribe(16)
	if snapSeq != 0 {
		t.Fatalf("fresh log snapshot seq = %d, want 0", snapSeq)
	}
	recs := sampleRecords()
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, sub, len(recs))
	for i, c := range got {
		if c.Seq != uint64(i+1) {
			t.Errorf("record %d: seq = %d, want %d", i, c.Seq, i+1)
		}
		back, err := DecodeFrame(c.Frame)
		if err != nil {
			t.Fatalf("record %d: frame does not round-trip: %v", i, err)
		}
		if !reflect.DeepEqual(back, recs[i]) {
			t.Errorf("record %d: frame decodes to a different record", i)
		}
	}
	if got := w.CommittedSeq(); got != uint64(len(recs)) {
		t.Errorf("CommittedSeq = %d, want %d", got, len(recs))
	}
	sub.Close()
	if _, ok := <-sub.C(); ok {
		t.Error("channel still open after Close")
	}
}

func TestSubscribeSnapshotBoundaryIsGapless(t *testing.T) {
	w, err := Open(t.TempDir(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	recs := sampleRecords()
	if err := w.Append(recs[0]); err != nil {
		t.Fatal(err)
	}
	sub, snapSeq := w.Subscribe(16)
	defer sub.Close()
	if snapSeq != 1 {
		t.Fatalf("snapshot seq = %d, want 1", snapSeq)
	}
	// Records committed after Subscribe must all arrive, starting at
	// snapSeq+1.
	for _, rec := range recs[1:] {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, sub, len(recs)-1)
	for i, c := range got {
		if c.Seq != snapSeq+uint64(i)+1 {
			t.Errorf("record %d: seq = %d, want %d", i, c.Seq, snapSeq+uint64(i)+1)
		}
	}
}

func TestSubscribeOverrunClosesFeed(t *testing.T) {
	w, err := Open(t.TempDir(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	sub, _ := w.Subscribe(1)
	for i := 0; i < 8; i++ {
		if err := w.Append(&Record{Type: TypeCounter, ClientID: "dev-0", NextID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// A one-slot buffer cannot hold 8 records: the feed must have been
	// overrun and closed rather than blocking the commit path.
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-sub.C():
			if !ok {
				return // closed, as required
			}
		case <-deadline:
			t.Fatal("overrun subscriber never closed")
		}
	}
}

func TestAppendFrameReplicatesByteIdentically(t *testing.T) {
	primaryDir, followerDir := t.TempDir(), t.TempDir()
	primary, err := Open(primaryDir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	follower, err := Open(followerDir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}

	sub, _ := primary.Subscribe(16)
	recs := sampleRecords()
	for _, rec := range recs {
		if err := primary.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range collect(t, sub, len(recs)) {
		rec, err := follower.AppendFrame(c.Frame)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rec, recs[i]) {
			t.Errorf("record %d: AppendFrame decoded a different record", i)
		}
		if seq := follower.CommittedSeq(); seq != c.Seq {
			t.Errorf("follower seq %d != primary seq %d", seq, c.Seq)
		}
	}
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}

	pb, err := os.ReadFile(filepath.Join(primaryDir, "wal-00000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	fb, err := os.ReadFile(filepath.Join(followerDir, "wal-00000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	if string(pb) != string(fb) {
		t.Fatalf("replicated segment diverged: primary %d bytes, follower %d bytes", len(pb), len(fb))
	}
}

func TestAppendFrameRejectsCorruptFrame(t *testing.T) {
	w, err := Open(t.TempDir(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	frame, err := EncodeFrame(&Record{Type: TypeCounter, ClientID: "dev-0", NextID: 1})
	if err != nil {
		t.Fatal(err)
	}
	frame[len(frame)-1] ^= 0xFF
	if _, err := w.AppendFrame(frame); err == nil {
		t.Fatal("corrupt frame accepted")
	}
	if got := w.CommittedSeq(); got != 0 {
		t.Fatalf("corrupt frame advanced commit seq to %d", got)
	}
}

// TestFollowerTornTailResync models a follower that crashes mid-apply:
// its log ends in a torn frame (the replicated record only partially
// reached the disk). On restart the torn tail is truncated, replay
// rebuilds the shorter prefix, and re-shipping the full frame feed —
// exactly what a snapshot-plus-feed catch-up does — converges the
// follower's log back to the primary's, byte for byte.
func TestFollowerTornTailResync(t *testing.T) {
	primaryDir, followerDir := t.TempDir(), t.TempDir()
	primary, err := Open(primaryDir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	follower, err := Open(followerDir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}

	sub, _ := primary.Subscribe(16)
	recs := sampleRecords()
	for _, rec := range recs {
		if err := primary.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	frames := collect(t, sub, len(recs))
	for _, c := range frames {
		if _, err := follower.AppendFrame(c.Frame); err != nil {
			t.Fatal(err)
		}
	}
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash mid-apply: tear the follower's final frame in half.
	segPath := filepath.Join(followerDir, "wal-00000001.log")
	st, err := os.Stat(segPath)
	if err != nil {
		t.Fatal(err)
	}
	lastLen := int64(len(frames[len(frames)-1].Frame))
	if err := os.Truncate(segPath, st.Size()-lastLen/2); err != nil {
		t.Fatal(err)
	}

	// Restart: Open truncates the torn frame, replay sees one record
	// fewer than the primary shipped.
	follower, err = Open(followerDir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	var replayed int
	if err := follower.Replay(func(*Record) error { replayed++; return nil }); err != nil {
		t.Fatal(err)
	}
	if replayed != len(recs)-1 {
		t.Fatalf("replayed %d records after torn tail, want %d", replayed, len(recs)-1)
	}

	// Re-sync: ship the full feed again. The overlapping prefix is
	// re-appended (appliers are idempotent; the log grows but replay
	// converges), and the torn record lands whole this time.
	for _, c := range frames {
		if _, err := follower.AppendFrame(c.Frame); err != nil {
			t.Fatal(err)
		}
	}
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	follower, err = Open(followerDir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	var got []*Record
	if err := follower.Replay(func(r *Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	// The tail of the replayed log must be exactly the shipped feed.
	if len(got) < len(recs) {
		t.Fatalf("replayed %d records after re-sync, want at least %d", len(got), len(recs))
	}
	tail := got[len(got)-len(recs):]
	for i, rec := range tail {
		if !reflect.DeepEqual(rec, recs[i]) {
			t.Errorf("record %d diverged after re-sync", i)
		}
	}
}
