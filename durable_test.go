package authenticache_test

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	authenticache "repro"
	"repro/internal/crp"
	"repro/internal/errormap"
	"repro/internal/mapkey"
	"repro/internal/rng"
	"repro/internal/wal"
)

var dctx = context.Background()

// fastWAL keeps group-commit latency negligible in tests.
func fastWAL() authenticache.WALOptions {
	return authenticache.WALOptions{FlushInterval: 200 * time.Microsecond, FlushBatch: 8}
}

// durableTestMap builds a single-plane synthetic error map.
func durableTestMap(lines, k int, seed uint64, vdds ...int) *errormap.Map {
	g := errormap.NewGeometry(lines)
	m := errormap.NewMap(g)
	r := rng.New(seed)
	for _, v := range vdds {
		m.AddPlane(v, errormap.RandomPlane(g, k, r))
	}
	return m
}

// copyWALDir clones a log directory, truncating the segment file
// named seg to cut bytes (cut < 0 copies verbatim).
func copyWALDir(t *testing.T, src, seg string, cut int64) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() == seg && cut >= 0 {
			b = b[:cut]
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestDurableCrashRecoveryTruncationSweep is the crash-recovery
// property: a server is killed mid-append at EVERY byte offset of the
// log's tail record, and for each truncation point the recovered
// server must (a) open cleanly, discarding the torn record, (b)
// refuse to verify any challenge issued before the crash — pendings
// are transient, so a recorded challenge cannot be replayed — and (c)
// never reissue a pair whose burn record committed before the crash.
func TestDurableCrashRecoveryTruncationSweep(t *testing.T) {
	const (
		id    = authenticache.ClientID("dev-0")
		vdd   = 680
		lines = 1024
	)
	crashDir := t.TempDir()
	cfg := authenticache.DefaultServerConfig()
	cfg.ChallengeBits = 16
	ds, err := authenticache.OpenDurableServer(crashDir, cfg, 1, fastWAL())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Enroll(dctx, id, durableTestMap(lines, 40, 5, vdd)); err != nil {
		t.Fatal(err)
	}
	const issues = 5
	chs := make([]*authenticache.Challenge, issues)
	for i := range chs {
		if chs[i], err = ds.IssueChallenge(dctx, id); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate the crash by never closing ds: every completed issue is
	// already fsynced (Append returns post-sync), so the on-disk state
	// is exactly what a kill -9 would leave.
	segName := ""
	entries, err := os.ReadDir(crashDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		segName = e.Name()
	}
	if len(entries) != 1 {
		t.Fatalf("expected exactly one segment in the crash dir, found %d entries", len(entries))
	}
	segPath := filepath.Join(crashDir, segName)
	recs, ends, err := wal.ScanSegment(segPath)
	if err != nil {
		t.Fatalf("scan crash segment: %v", err)
	}
	if len(recs) != 1+issues { // enroll + one burn per issue
		t.Fatalf("crash log has %d records, want %d", len(recs), 1+issues)
	}
	tailStart := ends[len(ends)-2]
	size := ends[len(ends)-1]

	for cut := tailStart; cut < size; cut++ {
		dir := copyWALDir(t, crashDir, segName, cut)
		rs, err := authenticache.OpenDurableServer(dir, cfg, 1, fastWAL())
		if err != nil {
			t.Fatalf("cut=%d: recovery failed: %v", cut, err)
		}
		// Committed burns are every record that fully precedes the cut:
		// the enroll plus the first issues-1 burns.
		burned := make(map[crp.PairBit]bool)
		committed, _, _ := wal.ScanSegment(filepath.Join(dir, segName))
		if len(committed) != issues { // enroll + (issues-1) burns
			t.Fatalf("cut=%d: recovered %d committed records, want %d", cut, len(committed), issues)
		}
		for _, rec := range committed {
			for _, p := range rec.Pairs {
				burned[canonicalPair(p)] = true
			}
		}
		// (b) no challenge issued before the crash verifies after it.
		for i, ch := range chs {
			ok, err := rs.Verify(dctx, id, ch.ID, crp.NewResponse(len(ch.Bits)))
			if ok || !errors.Is(err, authenticache.ErrUnknownChallenge) {
				t.Fatalf("cut=%d: pre-crash challenge %d replayed: ok=%v err=%v", cut, i, ok, err)
			}
		}
		// (c) new challenges never touch a committed pair. Challenges
		// are logical; unmap through the shared key to compare against
		// the journal's physical pairs.
		key, err := rs.CurrentKey(id)
		if err != nil {
			t.Fatal(err)
		}
		perm := mapkey.NewPermutation(mapkey.PlaneKey(key, vdd), lines)
		seenIDs := map[uint64]bool{}
		for _, ch := range chs[:issues-1] {
			seenIDs[ch.ID] = true
		}
		for i := 0; i < 4; i++ {
			ch, err := rs.IssueChallenge(dctx, id)
			if err != nil {
				t.Fatalf("cut=%d: post-recovery issue: %v", cut, err)
			}
			if seenIDs[ch.ID] {
				t.Fatalf("cut=%d: challenge ID %d reissued after recovery", cut, ch.ID)
			}
			for _, b := range ch.Bits {
				phys := canonicalPair(crp.PairBit{A: perm.Unmap(b.A), B: perm.Unmap(b.B), VddMV: b.VddMV})
				if burned[phys] {
					t.Fatalf("cut=%d: pair %+v burned before the crash was reissued after recovery", cut, phys)
				}
			}
		}
	}
}

// canonicalPair normalises a pair's orientation for set membership.
func canonicalPair(p crp.PairBit) crp.PairBit {
	if p.A > p.B {
		p.A, p.B = p.B, p.A
	}
	return p
}

// TestDurableCompactionUnderVerifyTraffic hammers issue/verify across
// a fleet while compactions run in parallel (the race-detector
// workout for the log's barrier and the snapshot's per-record locks),
// then proves recovery fidelity: the state serialised by the live
// server equals, byte for byte, the state a fresh server reconstructs
// from a crash-copy of the log directory.
func TestDurableCompactionUnderVerifyTraffic(t *testing.T) {
	dir := t.TempDir()
	cfg := authenticache.DefaultServerConfig()
	cfg.ChallengeBits = 16
	opt := fastWAL()
	opt.SegmentBytes = 4 << 10 // rotate often so compaction has segments to fold
	ds, err := authenticache.OpenDurableServer(dir, cfg, 3, opt)
	if err != nil {
		t.Fatal(err)
	}
	const clients = 4
	ids := make([]authenticache.ClientID, clients)
	for i := range ids {
		ids[i] = authenticache.ClientID(fmt.Sprintf("dev-%d", i))
		if _, err := ds.Enroll(dctx, ids[i], durableTestMap(2048, 60, uint64(30+i), 680)); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id authenticache.ClientID) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ch, err := ds.IssueChallenge(dctx, id)
				if err != nil {
					t.Errorf("issue %s: %v", id, err)
					return
				}
				if _, err := ds.Verify(dctx, id, ch.ID, crp.NewResponse(len(ch.Bits))); err != nil {
					t.Errorf("verify %s: %v", id, err)
					return
				}
			}
		}(id)
	}
	for i := 0; i < 5; i++ {
		if err := ds.Compact(); err != nil {
			t.Fatalf("compact %d under traffic: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()

	var live bytes.Buffer
	if err := ds.SaveState(&live); err != nil {
		t.Fatal(err)
	}
	// Crash-copy the directory (ds stays open — nothing is flushed
	// beyond what group commit already fsynced) and recover.
	crash := copyWALDir(t, dir, "", -1)
	rs, err := authenticache.OpenDurableServer(crash, cfg, 3, opt)
	if err != nil {
		t.Fatalf("recover crash copy: %v", err)
	}
	var recovered bytes.Buffer
	if err := rs.SaveState(&recovered); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live.Bytes(), recovered.Bytes()) {
		t.Fatalf("recovered state diverges from live state:\nlive %d bytes, recovered %d bytes", live.Len(), recovered.Len())
	}
}

// TestDurableRemapDeleteRecovery drives the remaining record types —
// key rotation, counter advance, client delete — through a crash and
// checks each survives recovery.
func TestDurableRemapDeleteRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := authenticache.DefaultServerConfig()
	cfg.ChallengeBits = 16
	ds, err := authenticache.OpenDurableServer(dir, cfg, 9, fastWAL())
	if err != nil {
		t.Fatal(err)
	}
	keep := authenticache.ClientID("keep")
	gone := authenticache.ClientID("gone")
	// Two planes: 680 for auth, 700 reserved for key updates.
	if _, err := ds.Enroll(dctx, keep, durableTestMap(1024, 40, 11, 680, 700), 700); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Enroll(dctx, gone, durableTestMap(1024, 40, 12, 680)); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.BeginRemap(dctx, keep); err != nil {
		t.Fatal(err)
	}
	if err := ds.CompleteRemap(dctx, keep, true); err != nil {
		t.Fatal(err)
	}
	rotated, err := ds.CurrentKey(keep)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.DeleteClient(dctx, gone); err != nil {
		t.Fatal(err)
	}

	crash := copyWALDir(t, dir, "", -1)
	rs, err := authenticache.OpenDurableServer(crash, cfg, 9, fastWAL())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	got, err := rs.CurrentKey(keep)
	if err != nil {
		t.Fatal(err)
	}
	if got != rotated {
		t.Fatal("rotated key lost across crash recovery")
	}
	if rs.Enrolled(gone) {
		t.Fatal("deleted client resurrected by recovery")
	}
	// The recovered server keeps serving: a fresh remap still works
	// (reserved plane survived) and issue/verify runs on the new key.
	ch, err := rs.IssueChallenge(dctx, keep)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Verify(dctx, keep, ch.ID, crp.NewResponse(len(ch.Bits))); err != nil {
		t.Fatal(err)
	}
}

// TestDurableCloseReopenEmptyTail: a graceful shutdown compacts, so
// the next boot loads only the snapshot and replays nothing.
func TestDurableCloseReopenEmptyTail(t *testing.T) {
	dir := t.TempDir()
	cfg := authenticache.DefaultServerConfig()
	cfg.ChallengeBits = 16
	ds, err := authenticache.OpenDurableServer(dir, cfg, 21, fastWAL())
	if err != nil {
		t.Fatal(err)
	}
	id := authenticache.ClientID("dev-0")
	if _, err := ds.Enroll(dctx, id, durableTestMap(1024, 40, 77, 680)); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.IssueChallenge(dctx, id); err != nil {
		t.Fatal(err)
	}
	var before bytes.Buffer
	if err := ds.SaveState(&before); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	rs, err := authenticache.OpenDurableServer(dir, cfg, 21, fastWAL())
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	var after bytes.Buffer
	if err := rs.SaveState(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("graceful close + reopen changed the database")
	}
}

// TestDurableRebootAfterCompactionDrawsFreshPairs: every boot must
// draw a challenge stream of its own. Each boot used to salt its
// stream with the log's committed sequence, which counts only the
// records committed since the open and so is 0 on every boot. A crash
// image of a boot that followed a compacting Close, recovered with the
// same seed, then redrew the stream that had burned the image's pairs:
// with 256 of 134 M pairs burned, its first issue failed as exhausted.
func TestDurableRebootAfterCompactionDrawsFreshPairs(t *testing.T) {
	const seed = 33
	dir := t.TempDir()
	cfg := authenticache.DefaultServerConfig()
	id := authenticache.ClientID("dev-0")
	ds, err := authenticache.OpenDurableServer(dir, cfg, seed, fastWAL())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Enroll(dctx, id, durableTestMap(16384, 100, 5, 680)); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	rs, err := authenticache.OpenDurableServer(dir, cfg, seed, fastWAL())
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if _, err := rs.IssueChallenge(dctx, id); err != nil {
		t.Fatal(err)
	}

	crash := copyWALDir(t, dir, "", -1)
	cs, err := authenticache.OpenDurableServer(crash, cfg, seed, fastWAL())
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	if _, err := cs.IssueChallenge(dctx, id); err != nil {
		t.Fatalf("recovered crash image refused its first challenge: %v", err)
	}
}

// TestDurableRecoversV2Snapshot: a log directory written before the
// binary snapshot holds a v2 JSON snapshot.json. Recovery loads all of
// it — every client, key, counter and burned pair — and the next
// compaction rewrites it as a v3 snapshot.
func TestDurableRecoversV2Snapshot(t *testing.T) {
	v2, err := os.ReadFile(filepath.Join("internal", "auth", "testdata", "state-v2.json"))
	if err != nil {
		t.Fatal(err)
	}
	var fixture struct {
		Clients []struct {
			ID     string `json:"id"`
			Key    string `json:"key"`
			NextID uint64 `json:"next_challenge_id"`
		} `json:"clients"`
	}
	if err := json.Unmarshal(v2, &fixture); err != nil {
		t.Fatal(err)
	}
	// The reference is the snapshot loaded by a plain server, whose
	// read of every burned pair internal/auth's TestLoadStateV2Fixture
	// checks pair by pair; recovery must reach the same state.
	cfg := authenticache.DefaultServerConfig()
	ref := authenticache.NewServer(cfg, 4)
	if err := ref.LoadState(bytes.NewReader(v2)); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := ref.SaveState(&want); err != nil {
		t.Fatal(err)
	}
	sameState := func(srv *authenticache.Server) {
		t.Helper()
		var got bytes.Buffer
		if err := srv.SaveState(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("recovered state differs from the v2 snapshot's: %d bytes, want %d", got.Len(), want.Len())
		}
	}

	dir := t.TempDir()
	snap := filepath.Join(dir, "snapshot.json")
	if err := os.WriteFile(snap, v2, 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := authenticache.OpenDurableServer(dir, cfg, 4, fastWAL())
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.ClientIDs()) != len(fixture.Clients) {
		t.Fatalf("recovered %d clients, want %d", len(ds.ClientIDs()), len(fixture.Clients))
	}
	for _, c := range fixture.Clients {
		key, err := ds.CurrentKey(authenticache.ClientID(c.ID))
		if err != nil {
			t.Fatal(err)
		}
		if hex.EncodeToString(key[:]) != c.Key {
			t.Fatalf("%s: key changed across recovery", c.ID)
		}
	}
	sameState(ds.Server)

	if err := ds.Compact(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(b, []byte("ACSNAPv3")) || len(b) >= len(v2) {
		t.Fatalf("compaction left a %d-byte snapshot starting %q, want a smaller v3 one", len(b), b[:min(len(b), 8)])
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	rs, err := authenticache.OpenDurableServer(dir, cfg, 4, fastWAL())
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	sameState(rs.Server)
	// The counters carried over: each client's next challenge takes
	// the id the v2 snapshot recorded.
	for _, c := range fixture.Clients {
		ch, err := rs.IssueChallenge(dctx, authenticache.ClientID(c.ID))
		if err != nil {
			t.Fatal(err)
		}
		if ch.ID != c.NextID {
			t.Fatalf("%s: next challenge id %d, want %d", c.ID, ch.ID, c.NextID)
		}
	}
}
